"""CLI contract: subcommands, exit codes, deterministic JSON."""

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam import suite
from liefam.cli import build_parser, main, parse_laurent, parse_window
from liefam.cohomology import GONCHAROVA_QMAX, GONCHAROVA_SMAX, PER_INDEX_MAX, ZERO_PINS_MAX
from liefam.errors import WindowTooSmall
from liefam.families import CATALOG, FIBRES
from liefam.geometry import PARAMETRIZATIONS
from liefam.poly import GUARD
from liefam.suite import NAMED_COCYCLES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_helpers():
    assert parse_window("-6..6") == range(-6, 7)
    assert parse_window("1..16") == range(1, 17)
    assert parse_window("3..3") == range(3, 4)
    for bad in ("5..1", "abc", "3..x", "3", ""):
        with pytest.raises(ValueError):
            parse_window(bad)
    assert parse_laurent("0") is None
    lp = parse_laurent("1:-2,3:0")
    assert lp.coefficient(-2) == 1 and lp.coefficient(0) == 3


def test_families_list(capsys):
    code, out = run(capsys, "--json", "families", "list")
    assert code == 0
    data = json.loads(out)
    assert "witt" in data["families"]
    assert data["families"]["d-line"]["requires"] == ["s"]


def test_bracket_element(capsys):
    code, out = run(capsys, "--json", "bracket", "--family", "elliptic", "--n", "2", "--m", "4")
    assert code == 0
    data = json.loads(out)
    assert len(data["element"]["components"]) == 3


def test_verify_jacobi_exit_codes(capsys):
    code, _ = run(capsys, "verify-jacobi", "--family", "witt", "--window", "-8..8")
    assert code == 0


@pytest.mark.parametrize(
    "argv, window",
    [
        (["verify-jacobi", "--family", "l1"], "1..16"),
        (["verify-jacobi", "--family", "formal-2"], "1..16"),
        (["verify-jacobi", "--family", "witt"], "-8..8"),
        (["cohomology", "check", "--cocycle", "beta1"], "1..16"),
        (["cohomology", "check", "--cocycle", "w1-order1"], "1..16"),
        (["cohomology", "check", "--cocycle", "ds-order1"], "-8..8"),
    ],
)
def test_default_window_follows_the_index_bound(capsys, argv, window):
    code, out = run(capsys, "--json", *argv)
    assert code == 0
    data = json.loads(out)
    assert data["inputs"]["window"] == window
    assert data["report"]["status"] == "PASS"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-jacobi", "--family", "witt"],
        ["cohomology", "check", "--cocycle", "beta1"],
    ],
)
def test_a_proved_check_never_lists_its_window(argv):
    """A PASS over the whole domain reads only the window's endpoints, so a
    window of 10^9 indices runs in 1 GiB of address space within a minute."""
    proc = _run_in_1_gib([*argv, "--window", "1..1000000000"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["status"] == "PASS"


def _run_in_1_gib(argv):
    """`liefam --json *argv` in a subprocess limited to 1 GiB of address space."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "liefam.cli", "--json", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )


def test_a_per_index_window_past_its_limit_exits_2():
    """A per-index ansatz has one unknown per window index, so a window of
    10^9 indices is refused before any is built, in 1 GiB of address space."""
    proc = _run_in_1_gib(["cohomology", "solve", "--cocycle", "beta1", "--ansatz", "per-index",
                          "--weight", "-1", "--window", "1..1000000000"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: a per-index ansatz takes at most {PER_INDEX_MAX} window indices, one "
        "unknown each; the window has 1000000000 in the domain of l1\n"
    )


def test_an_ansatz_weight_past_its_limit_exits_2():
    """An ansatz pins F(v_n) = 0 at each index n that F maps below the basis
    bound, so a weight of -10^14 is refused before any pin is built, in 1 GiB
    of address space."""
    proc = _run_in_1_gib(["cohomology", "solve", "--cocycle", "beta3", "--ansatz", "affine",
                          "--weight", "-99999999999999", "--window", "1..20"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: an ansatz takes at most {ZERO_PINS_MAX} zero pins, one per index F maps "
        "below the basis bound; weight -99999999999999 maps 99999999999999 indices of l1 "
        "below v_1\n"
    )


def test_verify_geometry(capsys):
    code, out = run(
        capsys, "--json", "verify-geometry", "--family", "three-point",
        "--window", "-4..4",
    )
    assert code == 0
    assert json.loads(out)["report"]["status"] == "PASS"


def test_goncharova_json(capsys):
    code, out = run(capsys, "--json", "cohomology", "goncharova", "--qmax", "2", "--smax", "8")
    assert code == 0
    data = json.loads(out)
    assert [1, 1] in data["nonzero_at"] and [2, 5] in data["nonzero_at"]


def test_cohomology_check_and_solve(capsys):
    code, _ = run(capsys, "cohomology", "check", "--cocycle", "ds-order1")
    assert code == 0
    code, out = run(
        capsys, "--json", "cohomology", "solve", "--cocycle", "ds-order1",
        "--ansatz", "parity-constant", "--weight", "-2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["status"] == "solved"
    assert data["result"]["phi"]["rule"]["even"] == ["0", "-3"]
    # beta3 has no coboundary witness: exit code 1 with a certificate
    code, out = run(
        capsys, "--json", "cohomology", "solve", "--cocycle", "beta3",
        "--ansatz", "per-index", "--weight", "-2", "--window", "1..20",
    )
    assert code == 1
    assert json.loads(out)["result"]["status"] == "infeasible"


def test_cohomology_compare(capsys):
    code, out = run(
        capsys, "--json", "cohomology", "compare", "--cocycle", "w1-order1",
        "--against", "beta3", "--ansatz", "affine", "--weight", "-2",
        "--window", "1..24", "--pin", "1=0,2=0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["scalar"] == "1/3"


def test_central_commands(capsys):
    code, out = run(
        capsys, "--json", "central", "cocycle", "--family", "witt",
        "--R", "0", "--window", "-10..10",
    )
    assert code == 0
    support = json.loads(out)["support"]
    assert [-2, 2, "-6"] in support
    code, out = run(
        capsys, "--json", "central", "locality", "--family", "witt",
        "--window", "-8..8",
    )
    assert code == 0
    assert json.loads(out)["report"]["M"] == 0
    code, out = run(
        capsys, "--json", "central", "independence", "--r1", "1:0",
        "--r2", "0", "--window", "-10..10",
    )
    assert code == 0
    assert json.loads(out)["lambda"] == {"-2": "1"}
    # the window is cut to the family's domain: l1 has no index below 1
    for family in ("l1", "w1"):
        code, out = run(
            capsys, "--json", "central", "cocycle", "--family", family, "--window", "-3..3"
        )
        assert code == 0
        assert json.loads(out)["support"] == []


#: SHA-256 of json.dumps([exit code, stdout, stderr]) of `liefam --json <entry>`,
#: recorded before the pointwise residue path, the field wrapper class and the
#: alpha2 argument of the realizations were removed.  d-infinity was added when
#: every family became a fibre of the one cubic realization.  The verify-geometry
#: digests were re-pinned when a PASS came to hold on the whole domain: the
#: certificate lists the classes proved and the pairs evaluated in place of the
#: window and its pairs, and `checked` counts the pairs evaluated; every status
#: and witness is unchanged.
OUTPUT_SHA256 = {
    "central cocycle --family witt": "ecb8e9038ef8b127033b65ec8f5f9d790c4d1bd63f311c014b5a4ac8028a1920",
    "central cocycle --family witt --R 1:-2": "7ac7ec493c0d3b6d599cfb32d1248e8599f4bdb560913d7042f13d247982afcf",
    "central cocycle --family three-point": "6f6e37cef2ed06c6b48d5533e6a3696db422a1fd5cd8f60c318ad0f102d909c5",
    "central cocycle --family three-point --R 1:-2": "2c663ed139bc132fb56ee2adf55e6d826cc2b6b7fa209bd1cc8447ae09360a8d",
    "central cocycle --family nodal": "bbea6de91dcb35f13378c2981817efdfc830fe5fa6bb163959a16892d8917f6e",
    "central cocycle --family nodal --R 1:-2": "6dcf925e66c5dea7f540d2a7e47f906fda208c1615e14314292ebdb49a4cbbbf",
    "central cocycle --family w1 --window 1..10": "84c81a0848ff7b214b38545f9d29a69ebb7bf0e7ccf97f7007266cd9100f5752",
    "central cocycle --family w1 --window 1..10 --R 1:-2": "b930a0b690503b163984090adcc7243b86d03abb111f9b7aa06aefd0249c6b1a",
    "central cocycle --family l1 --window 1..10": "e29f5e05d3b3ee62f3c79e8578212fd414b5ca9a2a9970f1a72b5e142445ae72",
    "central cocycle --family l1 --window 1..10 --R 1:-2": "368f3f7b8e2c92c8e28f7808d6c998131ef8e3d2b7922351baed186faebd80d7",
    "central locality --family witt": "57fdf23490e98ed758e97d1c88edecc25f6e3058a97043b230c2acf310ec07d7",
    "central locality --family witt --R 1:0": "05ab40f13beddfea3a46d85174e4babeda2eae7587be265668e5422a6a18d608",
    "central locality --family three-point": "469ca69526e21d1be8be4f605f74b8db9184aba32ca26115238deca13ae074be",
    "central independence --r1 1:0 --r2 0": "53039b5fe42ea4a9e0ecbbf86a597c07a4b193983637997c9d51ac2c2edf50c8",
    "central independence --r1 1:-1 --r2 1:0": "93b79ea42c4a3e2a949f38df975dece692bb9e271ddccfe8f6fa0e264bbf9cea",
    "verify-geometry --family witt": "10cdb5c0eb0d1a15413dc869a7249fc2c5c6af801ac95431bd974d74b726f5a1",
    "verify-geometry --family l1": "933aea127817e12e7ab94f985659bc21b4ee4b8047019948fdf3a013b3173718",
    "verify-geometry --family three-point": "e3c160cd849911b0f115f1abd70bb4dd699b7d219336f828c78b515b6951b518",
    "verify-geometry --family w1": "ae0b191e28dee756dd8cb3774585e6670c55c7836264f5fdb292b7669fe09274",
    "verify-geometry --family nodal": "c7f98787df4c684facbfabf3960dd6c183e9496ce7adda93c3b7592d9197b00c",
    "verify-geometry --family elliptic": "2158a106064b6035b027300b6026669baf2f787acc1dbf6fc7e876543941beee",
    "verify-geometry --family elliptic --params e1=1,e2=2": "1baf0c4caebeec2c22013f92bde8bdcb39b7579607bfbf5bd49735831d3f71b8",
    "verify-geometry --family d-infinity": "a03df72555d8033198a56a677cfd0e61232bf4ea21d26640ffb51b48c3c170cf",
}


@pytest.mark.parametrize("entry", sorted(OUTPUT_SHA256))
def test_central_and_geometry_outputs_are_pinned(capsys, entry):
    code = main(["--json", *entry.split()])
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err]).encode()
    assert hashlib.sha256(blob).hexdigest() == OUTPUT_SHA256[entry]


#: SHA-256 of json.dumps([exit code, stdout, stderr]) of `liefam --json <entry>`
#: for coboundary solves and class comparisons, recorded before d1 F + c·beta
#: = omega was written as one term walk for the solver and the re-check; the
#: solved closed shapes re-pinned when `verified_window` became the range the
#: re-check ran on (the window cut to the domain and widened by 4).  The last
#: four were recorded before the ansatz became a cochain over Q[unknowns].  Three
#: infeasible closed shapes on l1 re-pinned when the closed shapes began to read
#: their equations off class residuals: their contradiction is now the first
#: inconsistent class equation, on a stratum pinned at F(v_1) = 0 or F(v_2) = 0.
#: All but the refused pin re-pinned when closed shapes came to solve over the
#: whole domain: the certificate counts the equations of the system, lists the
#: strata proved and the pairs evaluated, and names the window where a per-index
#: ansatz holds; status, map and scalar are unchanged, except that the affine
#: beta3 solve on 3..24, which stopped with "the solution does not extend", is
#: now infeasible, as it is on 1..20.  The six infeasible entries re-pinned when
#: a solve came to stop at its first contradiction: their certificates count only
#: the equations read up to it (beta3 per-index at weight 0: 153 -> 2), and the
#: closed shapes whose contradiction is a class equation no longer list the pair
#: [1, 2] as evaluated, since the walk never reaches it.
SOLVE_SHA256 = {
    "cohomology solve --cocycle ds-order1 --ansatz parity-constant --weight -2": "40cd744713c54a5c0a6bdd0ad9b23edf45bb0b318540d7e90f8db780c443d29f",
    "cohomology solve --cocycle dinf-order2 --ansatz parity-constant --weight -4": "d8be1deaa60caa50a5cdc14052b477f09ff35664e392e14c989f9b3892ca9b94",
    "cohomology solve --cocycle ds-order1 --ansatz affine --weight -2": "92f664ba06138c6c65f3eac1bdfbed81facc356efd2a45d5044fb369b7719b44",
    "cohomology solve --cocycle beta1 --ansatz affine --weight -1 --window 1..20": "9e8cc541e3b941b8ea18db7839f3c5d7ab67d383f39040a85ff501f1c3675925",
    "cohomology solve --cocycle beta2 --ansatz affine --weight -1 --window 1..20": "61f1d15fed4a76e6212c6891977c93bc55ca20e0c1af1ee746a4121ae27426cb",
    "cohomology solve --cocycle beta3 --ansatz per-index --weight -2 --window 1..20": "28963523851d6b25d186f47d12f55249e3e3386665419e594928287d4421eb47",
    "cohomology solve --cocycle beta3 --ansatz affine --weight -2 --window 3..24": "caaf6c003139397f2d40ab5cd533e70bc34fc71509093fd59b45fe5d3b21cdc7",
    "cohomology solve --cocycle w1-order1 --ansatz affine --weight -2 --window 1..24": "3692565c940721698e67a3d3b21e840bc9e701ddc175212279b1c64b997095f7",
    "cohomology solve --cocycle ds-order1 --ansatz per-index --weight -2 --window -6..6": "8c04adfb0e932aaa2efd7f1b607a1b96321208a5dd909ce2436b1508578a550b",
    "cohomology compare --cocycle w1-order1 --against beta3 --ansatz affine --weight -2 --window 1..24 --pin 1=0,2=0": "47416fe740bb14556aa23c499b597fc20659efdd45bad9b832d16a7a7f0a7a04",
    "cohomology compare --cocycle w1-order1 --against beta3 --ansatz parity-constant --weight -2 --window 1..24": "a18f183949b8117d35c35f630b8c0c0111af0905a2f9ba2006f061f6b979eb67",
    "cohomology compare --cocycle w1-order1 --against beta3 --ansatz affine --weight -2 --window 1..24 --pin 2=-4/3": "564f57f0018675b351989b4551f07ae07cf78af2dcd232529d2586cd420b9fbc",
    "cohomology compare --cocycle w1-order1 --against beta3 --ansatz per-index --weight -2 --window 1..16": "61879e0ea6c7cf679494263b6290f1ff11d06fd03ddb925040f3d7efb81cb749",
    "cohomology compare --cocycle ds-order1 --against dinf-order2 --ansatz affine --weight -2": "664cdc3a702a18e64e7472cf0e105dd9de070ac3c0463c56606e7ee5c8b26a5a",
    "cohomology solve --cocycle beta3 --ansatz per-index --weight 0 --window 1..24": "229821a07d61bdd867780c9153a95d405d3eea26ed940b13a3ca60b6be2e2f88",
    "cohomology solve --cocycle ds-order1 --ansatz per-index --weight -2 --window -6..6 --pin 0=-3": "dae1764d92c552fe1a89274a80eebe2d47bbe52d9cba39cd1a9eb6283ea38b8d",
    "cohomology compare --cocycle ds-order1 --against dinf-order2 --ansatz per-index --weight -2 --window -5..5": "935d4b4bf43ece94b8282b523c3117d8789850c3ece5eb452c78ebc6cb9742ab",
    "cohomology solve --cocycle w1-order1 --ansatz parity-constant --weight -2 --window 1..16": "38c2a0d02d65dfa1e5bad7bbf12d99e2d4a8ae17b049806df9cd23075826f395",
}


@pytest.mark.parametrize("entry", sorted(SOLVE_SHA256))
def test_solve_and_compare_outputs_are_pinned(capsys, entry):
    code = main(["--json", *entry.split()])
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err]).encode()
    assert hashlib.sha256(blob).hexdigest() == SOLVE_SHA256[entry]


def test_a_two_index_window_solves_from_class_residuals(capsys):
    # the one pair (-1, 0) gives too few equations, but the class residuals of
    # every parity class determine the map on every pair of the Witt algebra
    code, out = run(
        capsys, "--json", "cohomology", "solve", "--cocycle", "ds-order1",
        "--ansatz", "parity-constant", "--weight", "-2", "--window", "-1..0",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "solved"
    assert (result["phi"]["rule"]["even"], result["phi"]["rule"]["odd"]) == (
        ["0", "-3"], ["0", "-3/2"]
    )
    assert result["certificate"] == {
        "equations": 7, "evaluated": [], "free_unknowns": [],
        "proved": [{"class": c, "forms": ["n", "m"]}
                   for c in ("even-even", "even-odd", "odd-even", "odd-odd")],
    }


def test_per_index_pin_outside_the_window_stays_in_the_solved_map(capsys):
    # the equations of the pairs whose bracket reaches v_9 use the pin, so
    # the re-check and the solved map must use it too
    argv = ["--json", "cohomology", "solve", "--cocycle", "ds-order1",
            "--ansatz", "per-index", "--weight", "-2"]
    code, out = run(capsys, *argv, "--window", "-6..6", "--pin", "9=1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "solved"
    entries = result["phi"]["rule"]["entries"]
    assert sorted(map(int, entries)) == [*range(-6, 7), 9]
    assert entries["9"] == {"components": [[7, "1"]]}
    code, out = run(capsys, *argv, "--window", "-3..3", "--pin", "100=1")
    assert code == 0
    entries = json.loads(out)["result"]["phi"]["rule"]["entries"]
    assert entries["100"] == {"components": [[98, "1"]]}


#: SHA-256 of json.dumps([exit code, stdout, stderr]) of `liefam --json <entry>`
#: for the paper suite and the moduli commands, recorded before the cubic
#: catalog and the j-line were derived from elliptic() by one ring map.  The
#: paper suite was re-pinned when criterion 5's per-index infeasibility
#: certificate came to name the window 1..24 it holds on, and again when
#: criterion 5 nested that certificate as {"certificate": ...}, and again when
#: that per-index solve came to stop at its first contradiction: its certificate
#: counts 23 equations read, not 132.
YARDSTICK_SHA256 = {
    "paper-suite --seed 1": "3cb3bf6e648ed750475b2cbba14897b4ea880529e45cea22b3802af29121a188",
    "moduli j-line --s 0": "f4f4ce2ca70641989584f76814e184982547c69ff9a9defc74698cc161ab146a",
    "moduli j-line --s 3": "9c56aa23ca3c725307e12d3de17bf76612e6fa8d801ca2d92e47a61843c55bb0",
    "moduli j-line --s 5/7": "db10cff12a8f107519e6ea115f0ba6474685a2401b5a7c6b68296851cdf00e46",
    "moduli j-line --s inf": "3d43fcc40f7d4b2a669b41f46ca54086c3dc55f1c3f30424c2636eab1facfe67",
    "moduli j-line --s 1": "0dcec45b61cfbc4fbdae925b8728b5c48787c95c9284ed8ae5d73e98183bfd09",
    "moduli j-line --s -2": "5b38bed90beb03c42cc72c53895fa08f4821f06087764c7543e08dc7a7ec7567",
    "moduli j-line --s -1/2": "0388b5574805f0a882dd7f2ac785b0b75fdce8ed4dc0c846e368d81cde383766",
    "moduli classify --e1 1 --e2 2": "f592e150d827af710aa937ced654072db335f081fdeb417efceeddf11a2f2980",
    "moduli classify --e1 1 --e2 1": "ed6a5884324b53fff38eeb2b1c27c2684a1237ef478ede9c2ddf76f6085d9258",
    "moduli classify --e1 1 --e2 -1/2": "933213b42f985f87d70aef3dce8615d3a300fc7e72301143fd86b8738ac20de6",
    "moduli classify --e1 0 --e2 0": "f00e594a30932c8ed53ab9243601ed965f315e3fe88c3947f73768a7d5bb349e",
}


@pytest.mark.parametrize("entry", sorted(YARDSTICK_SHA256))
def test_suite_and_moduli_outputs_are_pinned(capsys, entry):
    code = main(["--json", *entry.split()])
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err]).encode()
    assert hashlib.sha256(blob).hexdigest() == YARDSTICK_SHA256[entry]


def test_moduli_commands(capsys):
    code, out = run(capsys, "--json", "moduli", "classify", "--e1", "1", "--e2", "-1/2")
    assert code == 0
    assert json.loads(out)["fiber"] == {"kind": "nodal", "subcase": "IIa"}
    code, out = run(capsys, "--json", "moduli", "j-line", "--s", "inf")
    assert code == 0
    assert json.loads(out)["j"] == "1728"
    code, out = run(
        capsys, "--json", "moduli", "rescale", "--family", "d-line", "--s", "3",
        "--params", "e1=4", "--lambda2", "1/4",
    )
    assert code == 0


def test_json_reruns_are_byte_identical(capsys):
    args = ("--json", "verify-geometry", "--family", "elliptic", "--window", "-3..3")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "--family", "witt"])  # missing --n/--m
    assert exc.value.code == 2
    code = main(["moduli", "j-line", "--s", "1"])  # degenerate line
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-geometry", "--family", "witt", "--window", "5..1"], "--window"),
        (["verify-jacobi", "--family", "witt", "--window", "abc"], "--window"),
        (["cohomology", "check", "--cocycle", "beta3", "--window", "3..x"], "--window"),
        (["moduli", "classify", "--e1", "1/0", "--e2", "1"], "--e1"),
        (["families", "dump", "--family", "d-line", "--s", "foo"], "--s"),
        (["families", "dump", "--family", "elliptic", "--params", "e1=1/0"], "--params"),
        (["moduli", "rescale", "--family", "witt", "--lambda2", "1/0"], "--lambda2"),
        (["central", "cocycle", "--R", "1:x"], "--R"),
        (["moduli", "j-line", "--s", "infinity"], "--s"),
        (["paper-suite", "--only", "0"], "--only"),
        (["paper-suite", "--only", "7", "12"], "--only"),
        (["paper-suite", "--only", "x"], "--only"),
        (["verify-jacobi", "--family", "elliptic", "--params", "e1=1,e1=2"], "--params"),
        (["cohomology", "solve", "--cocycle", "ds-order1", "--weight", "-2",
          "--pin", "1=0,1=2"], "--pin"),
    ],
)
def test_malformed_values_exit_2_at_parse(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["--json", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert f"error: argument {flag}: invalid" in line


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["families", "dump", "--family", "d-line", "--s", "--"], "--s"),
        (["verify-geometry", "--family", "witt", "--window", "--"], "--window"),
    ],
)
def test_bare_double_dash_is_not_a_flag_value(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["--json", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: expected one argument" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["cohomology", "compare", "--cocycle", "w1-order1", "--ansatz", "affine",
             "--weight", "-2", "--window", "1..24", "--pin", "2=-4/3",
             "--against", "beta3"],
            "pin F(v_2) = -4/3 maps outside the basis domain",
        ),
        (
            ["cohomology", "solve", "--cocycle", "beta1", "--ansatz", "affine",
             "--weight", "-1", "--window", "1..20", "--pin", "0=0,-7=0"],
            "pin F(v_0) = 0: v_0 is outside the basis domain of l1, which starts at v_1",
        ),
        (
            ["cohomology", "solve", "--cocycle", "beta1", "--ansatz", "per-index",
             "--weight", "3", "--window", "1..12", "--pin", "0=2"],
            "pin F(v_0) = 2: v_0 is outside the basis domain of l1, which starts at v_1",
        ),
        (
            ["cohomology", "solve", "--cocycle", "beta3", "--ansatz", "affine",
             "--weight", "-2", "--window", "1..24", "--pin", "0=1"],
            "pin F(v_0) = 1: v_0 is outside the basis domain of l1, which starts at v_1",
        ),
        (
            ["moduli", "rescale", "--family", "witt", "--lambda2", "0"],
            "rescaling factor must be nonzero",
        ),
        (
            ["verify-jacobi", "--family", "l1", "--window", "-8..0"],
            "no index of the window lies in the domain of l1",
        ),
        (
            ["verify-geometry", "--family", "l1", "--window", "-5..0"],
            "no index of the window lies in the domain of l1",
        ),
        (
            ["cohomology", "solve", "--cocycle", "beta3", "--weight", "-2",
             "--window", "-5..0"],
            "no index of the window lies in the domain of l1",
        ),
        (
            ["verify-geometry", "--family", "three-point", "--params", "alpha2=1",
             "--window", "1..4"],
            "the three-point oracle works over the parameters ['alpha2'], but "
            "three-point|alpha2=1 is over []; check the unspecialized family "
            "three-point instead",
        ),
        (
            ["verify-geometry", "--family", "elliptic", "--params", "e1=1,e2=2"],
            "the elliptic oracle works over the parameters ['e1', 'e2'], but "
            "elliptic|e1=1,e2=2 is over []; check the unspecialized family "
            "elliptic instead",
        ),
        (
            ["verify-geometry", "--family", "witt", "--window", "3..3"],
            "no pair of indices of the window lies in the domain of witt",
        ),
        (
            # the family is refused before its window
            ["verify-geometry", "--family", "virasoro", "--window", "3..3"],
            "no geometric oracle for 'virasoro'",
        ),
        (
            ["verify-geometry", "--family", "elliptic", "--params", "e1=1,e2=2",
             "--window", "3..3"],
            "the elliptic oracle works over the parameters ['e1', 'e2'], but "
            "elliptic|e1=1,e2=2 is over []; check the unspecialized family "
            "elliptic instead",
        ),
        (
            ["verify-geometry", "--family", "l1", "--window", "-5..1"],
            "no pair of indices of the window lies in the domain of l1",
        ),
        (
            ["central", "independence", "--r1", "1:0", "--r2", "0", "--window", "3..3"],
            "no pair of indices of the window lies in the domain of witt",
        ),
        (
            ["central", "cocycle", "--family", "elliptic"],
            "the residue pairing works on genus-zero fields",
        ),
        (
            ["central", "cocycle", "--family", "d-infinity"],
            "the residue pairing works on genus-zero fields",
        ),
        (
            ["central", "cocycle", "--family", "witt|x"],
            "unknown family 'witt|x'; known: d-infinity, d-line, elliptic, formal-1, "
            "formal-2, formal-3, l1, nodal, three-point, virasoro, w1, witt",
        ),
        (
            ["central", "cocycle", "--family", "l1", "--window", "-5..0"],
            "no index of the window lies in the domain of l1",
        ),
        (["central", "cocycle", "--family", "d-line"], "no realization for family 'd-line'"),
        (
            ["central", "locality", "--family", "witt", "--window", "3..3"],
            "no pair of indices of the window lies in the domain of witt",
        ),
        (
            ["central", "cocycle", "--family", "nodal", "--window", "-2..-2"],
            "no pair of indices of the window lies in the domain of nodal",
        ),
        (
            ["cohomology", "compare", "--cocycle", "ds-order1", "--against", "beta3",
             "--ansatz", "affine", "--weight", "-2"],
            "ds-order1 is a cocycle of witt but beta3 is one of l1; compare needs "
            "both on one algebra",
        ),
        (
            ["cohomology", "compare", "--cocycle", "beta3", "--against", "ds-order1",
             "--weight", "-2"],
            "beta3 is a cocycle of l1 but ds-order1 is one of witt; compare needs "
            "both on one algebra",
        ),
        (
            ["cohomology", "compare", "--cocycle", "beta3", "--against", "nope",
             "--weight", "-2"],
            "unknown cocycle 'nope'; choose from ds-order1, dinf-order2, w1-order1, "
            "beta1, beta2, beta3",
        ),
        (
            ["cohomology", "solve", "--cocycle", "beta3", "--ansatz", "per-index",
             "--weight", "-2", "--window", "5..6"],
            "the window gives no equation: no pair of its indices has F modeled "
            "at both and at every index of their bracket",
        ),
        (
            ["cohomology", "compare", "--cocycle", "w1-order1", "--against", "beta3",
             "--ansatz", "per-index", "--weight", "-2", "--window", "7..8"],
            "the window gives no equation: no pair of its indices has F modeled "
            "at both and at every index of their bracket",
        ),
        (
            ["cohomology", "goncharova", "--qmax", "0"],
            "the table needs qmax >= 1 and smax >= 1, got qmax 0 and smax 20",
        ),
        (
            ["cohomology", "goncharova", "--smax", "-1"],
            "the table needs qmax >= 1 and smax >= 1, got qmax 3 and smax -1",
        ),
        (
            ["cohomology", "goncharova", "--qmax", "2", "--smax", "100000000"],
            f"the table takes smax <= {GONCHAROVA_SMAX}, got smax 100000000",
        ),
        (
            ["cohomology", "goncharova", "--qmax", str(GONCHAROVA_QMAX + 1), "--smax", "44"],
            f"graded dimensions implemented for q <= {GONCHAROVA_QMAX}",
        ),
        (
            ["cohomology", "solve", "--cocycle", "beta3", "--ansatz", "affine",
             "--weight", str(-ZERO_PINS_MAX - 1), "--window", "1..20"],
            f"an ansatz takes at most {ZERO_PINS_MAX} zero pins, one per index F maps below "
            f"the basis bound; weight {-ZERO_PINS_MAX - 1} maps {ZERO_PINS_MAX + 1} indices "
            "of l1 below v_1",
        ),
    ],
)
def test_inputs_the_toolkit_rejects_exit_2(capsys, argv, message):
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-geometry", "--family", "elliptic", "--samples", "2"],
        ["verify-geometry", "--family", "elliptic", "--samples", "2483"],
        ["verify-geometry", "--family", "elliptic", "--seed", "11"],
    ],
)
def test_sampling_flags_are_gone(capsys, argv):
    """The elliptic oracle checks one identity over Q[e1, e2]; it draws no samples."""
    with pytest.raises(SystemExit) as exc:
        main(["--json", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[3:])}\n" in captured.err


# Malformed and valid values for the fuzz below.  Window ends stay within
# -4..4 (or a junk token), so every valid window is small.
_JUNK = st.sampled_from(
    ["", " ", "x", "1/0", "0/0", "1/", "/2", "1//2", "--1", "+2", "1.5", "1e3",
     "inf", "nan", "1/-2", "1_0", "\u0663", "=", ",", ".."]
)
_RATIONAL = st.one_of(
    _JUNK,
    st.integers(-9, 9).map(str),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
    st.text(alphabet="-/.0123eE x", max_size=5),
)
_END = st.one_of(st.integers(-4, 4).map(str), _JUNK)
_WINDOW = st.builds(
    "{}{}{}".format, _END, st.sampled_from(["..", ".", "...", "", ":", ".. "]), _END
)
_PARAMS = st.lists(
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["e1", "e2", " e1 ", "s", "x", ""]),
        st.sampled_from(["=", "", "=="]),
        _RATIONAL,
    ),
    max_size=3,
).map(",".join)
# Integer flags: small values, extremes and junk.  Sample counts and the
# graded-table ends stay small, so every valid call is fast.
_INT = st.one_of(
    _JUNK, st.integers(-30, 30).map(str), st.sampled_from(["-1000000", "10**6"])
)
_SMALL = st.one_of(_JUNK, st.integers(-3, 4).map(str))
_FAMILY = st.sampled_from(sorted(CATALOG))
_ARGV = st.one_of(
    st.builds(
        lambda fam, w: ["verify-geometry", "--family", fam, "--window", w], _FAMILY, _WINDOW
    ),
    st.builds(
        lambda fam, n, m: ["bracket", "--family", fam, "--n", n, "--m", m],
        st.sampled_from(["witt", "virasoro", "elliptic", "l1", "w1", "formal-2"]),
        _INT,
        _INT,
    ),
    st.builds(
        lambda fam, w, p: ["verify-geometry", "--family", fam, "--window", w, "--params", p],
        st.sampled_from(["elliptic", "three-point", "witt"]),
        _WINDOW,
        _PARAMS,
    ),
    st.builds(lambda seed: ["paper-suite", "--only", "7", "--seed", seed], _INT),
    st.builds(
        lambda q, s: ["cohomology", "goncharova", "--qmax", q, "--smax", s],
        _SMALL,
        st.one_of(_JUNK, st.integers(-3, 12).map(str)),
    ),
    st.builds(
        lambda c, ansatz, w: ["cohomology", "solve", "--cocycle", c, "--ansatz", ansatz,
                              "--weight", w, "--window", "1..6"],
        st.sampled_from(["ds-order1", "beta3", "w1-order1"]),
        st.sampled_from(["parity-constant", "affine", "per-index"]),
        _INT,
    ),
    st.builds(lambda w: ["cohomology", "check", "--cocycle", "ds-order1",
                         "--window", w], _WINDOW),
    st.builds(lambda w: ["central", "locality", "--window", w], _WINDOW),
    st.builds(
        lambda fam, w: ["central", "cocycle", "--family", fam, "--window", w], _FAMILY, _WINDOW
    ),
    st.builds(
        lambda w: ["central", "independence", "--r1", "1:0", "--r2", "0", "--window", w],
        _WINDOW,
    ),
    st.builds(lambda a, b: ["moduli", "classify", "--e1", a, "--e2", b],
              _RATIONAL, _RATIONAL),
    st.builds(lambda s: ["families", "dump", "--family", "d-line", "--s", s], _RATIONAL),
    st.builds(lambda s: ["moduli", "j-line", "--s", s], st.one_of(_RATIONAL, st.just("inf"))),
    st.builds(
        lambda fam, p: ["families", "dump", "--family", fam, "--s", "3", "--params", p],
        st.sampled_from(["elliptic", "d-line", "witt"]),
        _PARAMS,
    ),
)


@settings(max_examples=250, deadline=5000)
@given(_ARGV)
def test_argv_fuzz_never_raises(argv):
    """Any value of these flags ends in an exit code, never in a traceback."""
    try:
        code = main(["--json", *argv])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1, 2)


def test_paper_suite_subset(capsys):
    code, out = run(capsys, "--json", "paper-suite", "--only", "3", "7")
    assert code == 0
    data = json.loads(out)
    assert [c["status"] for c in data["criteria"]] == ["PASS", "PASS"]


def test_paper_suite_criterion_5_erratum(capsys):
    code, out = run(capsys, "--json", "paper-suite", "--only", "5")
    assert code == 1
    (crit,) = json.loads(out)["criteria"]
    assert crit["status"] == "FAIL"
    assert crit["details"]["computed_witness"]["scalar"] == "1/3"
    # the per-index solve's certificate is nested, so the verdict digest drops it
    assert list(crit["details"]["infeasibility"]) == ["certificate"]
    erratum = crit["details"]["erratum"]
    assert erratum["stated_pins"] == {
        "pairs": 276,
        "failing_pairs": 45,
        "first_residual": {"pair": [1, 2], "value": {"components": [[1, "5/3"]]}},
    }
    assert erratum["w_valued"] == {
        "values": {
            "1": {"components": [[-1, "-1"]]},
            "2": {"components": [[0, "-4/3"]]},
        },
        "formula_at_2": {"components": [[0, "-5/3"]]},
        "failing_pairs": 0,
        "equals_computed_minus_third_ad_v-2": True,
    }


def test_paper_suite_reruns_are_byte_identical(capsys):
    _, first = run(capsys, "--json", "paper-suite", "--only", "3", "6", "7", "8")
    _, second = run(capsys, "--json", "paper-suite", "--only", "3", "6", "7", "8")
    assert first == second


def test_paper_suite_seed_changes_only_the_inputs(capsys):
    # criteria 2 and 9 check identities over Q[e1, e2]; no criterion draws samples
    _, first = run(capsys, "--json", "paper-suite", "--only", "2", "7", "9", "--seed", "1")
    _, second = run(capsys, "--json", "paper-suite", "--only", "2", "7", "9", "--seed", "5")
    a, b = json.loads(first), json.loads(second)
    assert (a["inputs"], b["inputs"]) == ({"seed": 1}, {"seed": 5})
    assert a["criteria"] == b["criteria"]
    assert [c["status"] for c in a["criteria"]] == ["PASS", "PASS", "PASS"]
    assert sorted(a["criteria"][0]["details"]) == [
        "budget_seconds", "elliptic", "three-point", "within_budget"
    ]


def test_cocycle_from_json_file(tmp_path, capsys):
    from liefam.suite import named_cocycle

    _, omega = named_cocycle("ds-order1")
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"algebra": "witt", "cochain": omega.to_json()}))
    code, out = run(capsys, "--json", "cohomology", "check", "--cocycle", str(path))
    assert code == 0
    assert json.loads(out)["report"]["status"] == "PASS"


def test_a_pair_rules_central_key_leaves_its_proof_alone(tmp_path, capsys):
    """A pair rule's values ignore its central rule, and so do its index forms: with
    a central m^2, which has no odd p, ds-order1 is still proved on every stratum."""
    from liefam.suite import named_cocycle

    _, omega = named_cocycle("ds-order1")
    reports = []
    for central in (None, {"kind": "delta", "poly": ["0", "0", "1"]}):
        cochain = omega.to_json()
        if central is not None:
            cochain["rule"]["central"] = central
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps({"algebra": "witt", "cochain": cochain}))
        code, out = run(capsys, "--json", "cohomology", "check", "--cocycle", str(path))
        assert code == 0
        reports.append(json.loads(out)["report"])
    assert reports[1] == reports[0]
    assert reports[0]["status"] == "PASS" and reports[0]["checked"] == 0


_HYPERPLANE = {"class": "even-even", "forms": ["2 - m", "m"], "index": "c"}


@pytest.mark.parametrize(
    "ansatz, contradiction",
    [
        ("parity-constant", {**_HYPERPLANE, "monomial": "1"}),
        ("affine", {**_HYPERPLANE, "monomial": "m"}),
        ("per-index", {"index": "c", "pair": [-3, 5]}),
    ],
)
def test_solve_over_virasoro_keeps_the_central_equations(
    tmp_path, capsys, ansatz, contradiction
):
    # the Witt coboundary ds-order1 is no coboundary over Virasoro: d1 F has a
    # central component that no F of weight -2 cancels; a closed shape finds it
    # on the hyperplane n + m = 2, where [F(v_n), v_m] reaches the central delta
    from liefam.suite import named_cocycle

    _, omega = named_cocycle("ds-order1")
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"algebra": "virasoro", "cochain": omega.to_json()}))
    code, out = run(
        capsys, "--json", "cohomology", "solve", "--cocycle", str(path),
        "--ansatz", ansatz, "--weight", "-2", "--window", "-6..6",
    )
    assert code == 1
    result = json.loads(out)["result"]
    assert result["status"] == "infeasible"
    assert result["certificate"]["contradiction_at"] == contradiction


_PAIR_RULE = {"arity": 2, "mode": "adjoint", "weight": -2, "params": [], "rule": {
    "kind": "pair-rule", "family": "x", "params": [], "domain": "all-integers",
    "rule": {"odd-odd": [], "even-even": [], "odd-even": []}}}
_AFFINE_MAP = {"arity": 1, "mode": "adjoint", "weight": -2, "params": [], "rule": {
    "kind": "affine-map", "weight": -2, "even": ["0", "1"], "odd": ["0", "1"], "pins": {}}}
_ELEMENT_TABLE = {"arity": 1, "mode": "trivial", "weight": None, "params": [], "rule": {
    "kind": "map-table", "entries": {"1": {"components": [[-1, [["1", []]]]]}}}}
_TRIVIAL_ZERO = {"kind": "map-table", "entries": {}}
#: A well-formed central table: a kind that a family's JSON no longer has.
_TABLE_CENTRAL = {"kind": "table", "range": [-20, 20], "entries": [[-1, 1, "1"]]}


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"algebra": "witt"}),
        json.dumps([{"algebra": "witt", "cochain": _PAIR_RULE}]),
        json.dumps({"algebra": "witt", "cochain": {**_ELEMENT_TABLE, "arity": 2,
                                                   "mode": "adjoint"}}),
        json.dumps({"algebra": "witt", "cochain": {**_AFFINE_MAP, "arity": 2}}),
        json.dumps({"algebra": "witt", "cochain": {**_PAIR_RULE, "arity": 1}}),
        json.dumps({"algebra": "witt", "cochain": {**_PAIR_RULE, "mode": "trivial"}}),
        json.dumps({"algebra": "witt", "cochain": _ELEMENT_TABLE}),
        json.dumps({"algebra": "witt", "cochain": {
            **_PAIR_RULE, "rule": {**_PAIR_RULE["rule"], "rule": "x"}}}),
        json.dumps({"algebra": "witt", "cochain": {
            **_AFFINE_MAP, "rule": {**_AFFINE_MAP["rule"], "even": ["1"]}}}),
        json.dumps({"algebra": "witt", "cochain": {**_PAIR_RULE, "rule": {
            **_PAIR_RULE["rule"], "central": {"kind": "table", "range": [0], "entries": []}}}}),
        json.dumps({"algebra": "witt", "cochain": {**_PAIR_RULE, "rule": {
            **_PAIR_RULE["rule"], "central": _TABLE_CENTRAL}}}),
    ],
    ids=["not-json", "no-cochain", "top-level-list", "map-table-arity-2",
         "affine-map-arity-2", "pair-rule-arity-1", "trivial-pair-rule",
         "trivial-element-table", "pair-rule-rule-string", "affine-map-short-even",
         "pair-rule-short-central-range", "pair-rule-table-central"],
)
@pytest.mark.parametrize("command", [["check"], ["solve", "--weight", "-2"],
                                     ["compare", "--weight", "-2", "--against", "ds-order1"]])
def test_malformed_cocycle_files_exit_2(tmp_path, capsys, text, command):
    path = tmp_path / "cocycle.json"
    path.write_text(text)
    assert main(["--json", "cohomology", command[0], "--cocycle", str(path),
                 *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if '"kind": "table"' in text:
        assert captured.err == "error: unknown central rule kind 'table'; known: delta\n"


@pytest.mark.parametrize(
    "cochain, mode",
    [(_AFFINE_MAP, "adjoint"), ({**_ELEMENT_TABLE, "rule": _TRIVIAL_ZERO}, "trivial")],
    ids=["affine-map", "trivial-map-table"],
)
@pytest.mark.parametrize("command", [["solve", "--weight", "-2"],
                                     ["compare", "--weight", "-2", "--against", "ds-order1"]])
def test_solving_refuses_a_cochain_that_is_not_an_adjoint_2_cochain(
    tmp_path, capsys, cochain, mode, command
):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"algebra": "witt", "cochain": cochain}))
    assert main(["--json", "cohomology", command[0], "--cocycle", str(path),
                 *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: coboundary solving needs an adjoint 2-cochain; the cocycle is a "
        f"1-cochain with {mode} coefficients\n"
    )


@pytest.mark.parametrize(
    "algebra, entries, code, witness",
    [("l1", {"1": "1"}, 0, None), ("witt", {"0": "1"}, 1, {"tuple": [-8, 8], "value": "-16"})],
)
def test_a_trivial_map_table_file_is_checked(tmp_path, capsys, algebra, entries, code, witness):
    """d of the dual of v_1 vanishes on l1, where no bracket reaches v_1; d of
    the dual of v_0 on witt is -(m - n) at n + m = 0.  The cochain round-trips."""
    cochain = {**_ELEMENT_TABLE, "rule": {"kind": "map-table", "entries": entries}}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"algebra": algebra, "cochain": cochain}))
    got, out = run(capsys, "--json", "cohomology", "check", "--cocycle", str(path))
    payload = json.loads(out)
    assert got == code and payload["cochain"] == cochain
    assert payload["report"]["status"] == ("FAIL" if code else "PASS")
    assert payload["report"].get("witness") == witness


def _elliptic_pair_rule(exponent):
    """A cocycle file: a pair rule over elliptic whose coefficients are +-3*e1^exponent."""
    a, b = ([[c, [exponent, 0]]] for c in ("-3", "3"))
    return {"algebra": "elliptic", "cochain": {
        "arity": 2, "mode": "adjoint", "weight": -2, "params": ["e1", "e2"], "rule": {
            "kind": "pair-rule", "family": "x", "params": ["e1", "e2"],
            "domain": "all-integers",
            "rule": {"odd-odd": [], "even-even": [[-2, [a, b, "0"]]], "odd-even": []}}}}


@pytest.mark.parametrize("exponent", [-1, GUARD])
def test_a_cocycle_file_with_an_exponent_out_of_range_is_malformed(tmp_path, capsys, exponent):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(_elliptic_pair_rule(1)))
    assert main(["--json", "cohomology", "check", "--cocycle", str(path)]) in (0, 1)
    capsys.readouterr()
    path.write_text(json.dumps(_elliptic_pair_rule(exponent)))
    assert main(["--json", "cohomology", "check", "--cocycle", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cocycle file {path} is malformed: exponent vector ({exponent}, 0) "
        f"leaves the range 0..{GUARD - 1}\n"
    )


def _yardstick():
    path = Path(__file__).resolve().parents[1] / "tools" / "yardstick.py"
    spec = importlib.util.spec_from_file_location("yardstick", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands(parser, head=()):
    """The words of every subcommand of the parser, as tuples."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [head]
    return [c for name, sub in subs[0].choices.items() for c in _commands(sub, (*head, name))]


def test_the_yardstick_covers_every_family_and_named_cocycle():
    yardstick = _yardstick()
    argvs = yardstick.yardstick_argvs()
    dumped = {a[3] for a in argvs if a[:2] == ["families", "dump"]}
    assert dumped == set(CATALOG)
    for command in ("solve", "compare"):
        named = {a[3] for a in argvs if a[:2] == ["cohomology", command]}
        assert named == set(NAMED_COCYCLES), command
    jacobi = [a for a in argvs if a[0] == "verify-jacobi"]
    assert {a[2] for a in jacobi} == set(CATALOG) and len(jacobi) == 2 * (len(CATALOG) + 4)
    # d-line at criterion 1's slopes: a line through the origin, the degenerate lines, IIa
    assert {a[4] for a in jacobi if a[2] == "d-line"} == {"3", "0", "1", "-2", "-1/2"}
    checked = {a[3] for a in argvs if a[:2] == ["cohomology", "check"]}
    assert checked == set(NAMED_COCYCLES)
    # the verdict digest drops every certificate and count of evaluated tuples
    report = {"check": "x", "checked": 3, "certificate": {"proved": []}, "status": "PASS"}
    assert yardstick._verdict({"criteria": [{"report": report}]}) == {
        "criteria": [{"report": {"check": "x", "status": "PASS"}}]
    }
    oracle = {(a[2], a[4]) for a in argvs if a[0] == "verify-geometry"}
    assert oracle == {(f, w) for f in FIBRES for w in ("-6..6", "1..9", "3..11")}
    paired = {(a[3], a[5], tuple(a[6:])) for a in argvs if a[:2] == ["central", "cocycle"]}
    assert paired == {
        (f, "1..12" if f in ("l1", "w1") else "-10..10", r)
        for f in PARAMETRIZATIONS
        for r in ((), ("--R", "1:-2"))
    }
    assert len([a for a in argvs if a[0] == "central"]) == len(paired) + 4
    assert len(argvs) == len(set(map(tuple, argvs)))
    for command in _commands(build_parser()):
        assert any(tuple(a[: len(command)]) == command for a in argvs), command
    # its digest is the one the tests pin
    entry = "moduli j-line --s 0"
    assert yardstick.digest(entry.split()) == YARDSTICK_SHA256[entry]


# ---------------------------------------------------------------------------
# paper-suite on two processes
# ---------------------------------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """[the number of os.fork calls made since], os.fork still forking."""
    count, fork = [0], os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


def one_process(monkeypatch, how):
    """Make run_suite run every criterion in this process, as it does with
    one usable CPU or without os.fork."""
    if how == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "fork")


def raising(exc):
    def criterion():
        raise exc

    return criterion


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


#: The criteria of the forked child's share and those run here, in order.
CHILD = sorted(suite.CHILD_CRITERIA)
HERE = sorted(set(suite.CRITERIA) - suite.CHILD_CRITERIA)


ORDER = sorted(suite.CRITERIA)

#: Two criteria next in order that run on different sides: the first pair
#: whose earlier one is the child's, then the first whose later one is.
MIXED = [
    next((a, b) for a, b in zip(ORDER, ORDER[1:]) if (a in CHILD, b in CHILD) == sides)
    for sides in [(True, False), (False, True)]
]


SUITE_ARGVS = [
    ["paper-suite", "--seed", "1"],
    ["paper-suite", "--seed", "7"],
    ["paper-suite", "--only", "1", "3", "5"],
    ["paper-suite", "--only", "2", "4", "8", "9"],
]


@pytest.mark.parametrize("how", ["one cpu", "no fork"])
@pytest.mark.parametrize("argv", SUITE_ARGVS, ids=" ".join)
def test_paper_suite_prints_the_same_on_one_and_two_processes(capfd, monkeypatch, forks, argv, how):
    two = main(["--json", *argv]), capfd.readouterr()
    assert forks == [1] and no_child_left()
    one_process(monkeypatch, how)
    one = main(["--json", *argv]), capfd.readouterr()
    assert forks == [1]
    assert two == one


def test_paper_suite_writes_one_json_document_to_fd_1(capfd, forks):
    code = main(["--json", "paper-suite"])
    captured = capfd.readouterr()
    assert forks == [1] and no_child_left()
    (line,) = captured.out.splitlines()
    assert json.loads(line)["overall"] == "FAIL" and code == 1 and captured.err == ""


@pytest.mark.parametrize("how", ["one cpu", "no fork"])
def test_a_criterion_raising_in_the_child_exits_as_on_one_process(capfd, monkeypatch, forks, how):
    number = CHILD[-1]
    monkeypatch.setitem(suite.CRITERIA, number, raising(WindowTooSmall(f"criterion {number} broke")))
    two = main(["--json", "paper-suite"]), capfd.readouterr()
    assert forks == [1] and no_child_left()
    one_process(monkeypatch, how)
    one = main(["--json", "paper-suite"]), capfd.readouterr()
    assert two == one == (2, ("", f"error: criterion {number} broke\n"))


@pytest.mark.parametrize("first, later", MIXED)
def test_the_first_criterion_in_order_that_raises_reaches_the_caller(monkeypatch, forks, first, later):
    """One of the two criteria runs in the child and one here; a serial
    run would raise the first's error and never run the later one."""
    assert (first in suite.CHILD_CRITERIA) != (later in suite.CHILD_CRITERIA)
    monkeypatch.setitem(suite.CRITERIA, first, raising(ZeroDivisionError(f"criterion {first}")))
    monkeypatch.setitem(suite.CRITERIA, later, raising(KeyError(f"criterion {later}")))
    with pytest.raises(ZeroDivisionError, match=f"criterion {first}"):
        suite.run_suite()
    assert forks == [1] and no_child_left()


def test_no_child_outlives_run_suite(monkeypatch, forks):
    first, later = MIXED[0]
    assert no_child_left()
    assert [r.number for r in suite.run_suite()] == sorted(suite.CRITERIA)
    assert no_child_left()
    monkeypatch.setitem(suite.CRITERIA, first, raising(RuntimeError(f"criterion {first} broke")))
    with pytest.raises(RuntimeError, match=f"criterion {first} broke"):
        suite.run_suite()
    assert no_child_left()
    monkeypatch.setitem(suite.CRITERIA, later, raising(RuntimeError(f"criterion {later} broke")))
    with pytest.raises(RuntimeError, match=f"criterion {first} broke"):
        suite.run_suite()
    assert forks == [3] and no_child_left()


def test_a_child_that_sends_no_results_has_its_share_run_here(monkeypatch, forks):
    """Details that marshal cannot send end the child without results."""
    number, only = CHILD[-1], {HERE[0], CHILD[-1]}
    unsent = suite.CriterionResult(number, "unsent", True, {"x": Fraction(1, 3)})
    monkeypatch.setitem(suite.CRITERIA, number, lambda: unsent)
    results = suite.run_suite(only=only)
    assert forks == [1] and no_child_left()
    assert [r.number for r in results] == sorted(only) and results[sorted(only).index(number)] is unsent


def test_a_fork_that_fails_leaves_the_share_to_this_process(monkeypatch):
    def fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    only = {HERE[0], CHILD[-1]}
    assert [r.number for r in suite.run_suite(only=only)] == sorted(only)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat") or len(os.sched_getaffinity(0)) < 2,
    reason="needs Linux /proc and two usable CPUs",
)
def test_the_child_keeps_off_its_parents_cpu(monkeypatch, forks):
    usable, number = os.sched_getaffinity(0), CHILD[0]
    monkeypatch.setitem(suite.CRITERIA, number, lambda: suite.CriterionResult(
        number, "affinity", True, {"cpus": sorted(os.sched_getaffinity(0))}
    ))
    (first,) = [r for r in suite.run_suite(only={number, HERE[0]}) if r.number == number]
    assert forks == [1] and no_child_left()
    assert set(first.details["cpus"]) < usable and len(first.details["cpus"]) == len(usable) - 1
    assert os.sched_getaffinity(0) == usable


@pytest.mark.parametrize("only", [set(HERE[:2]), set(CHILD[:2])])
def test_an_empty_share_keeps_the_suite_in_one_process(forks, only):
    assert [r.number for r in suite.run_suite(only=only)] == sorted(only)
    assert forks == [0]


def test_a_second_thread_keeps_the_suite_in_one_process(forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        results = suite.run_suite(only={CHILD[0], HERE[0]})
    finally:
        stop.set()
        thread.join()
    assert [r.number for r in results] == sorted({CHILD[0], HERE[0]}) and forks == [0]
