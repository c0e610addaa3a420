"""Golden bytes: the sha256 of stdout for fixed CLI commands.

The commands are the eight README examples (their ``--out`` files dropped, so
the data goes to stdout), a butterfly as JSON, an almost-Mathieu spectrum at
q = 377, and small runs that give every subcommand and every ``cantor --what``
mode in both formats, with both ``--leads`` and ``--method bounded``, and
the golden-mean IDS and Lyapunov exponent at phases other than 0 in both
roundings (the Lyapunov exponents also see how the window is split into
level blocks, which the integer counts of the IDS do not). Any
change to a printed digit changes a hash; a kernel change that is meant to
keep the output must keep every hash. Every JSON output must also be strict
JSON, which has no NaN or Infinity.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from quasispec.cli import main

GOLDEN = {
    "spectrum --model fibonacci --lambda 2 --approx-q 89 --format json":
        "79ab75f5b343a25bba7a732b1e90d1d68cb869e33d114ca03185649b0694b1e9",
    "butterfly --lambda 2 --qmax 20 --omega 0":
        "eb66da0ee26b745788d4c8d1827b19dc7af1dce88ab74b3f8e61a61212200ca3",
    "ids --model free --size 2000 --emin -3 --emax 3 --grid 600":
        "8c7ee4f335db92a6cd05dd8217a6b663ef5ae98e8a996fe26c1e396959cbc037",
    "lyapunov --model almost-mathieu --alpha 0.6180339887 --lambda 3 "
    "--omega 0 --n 20000 --emin -5 --emax 5 --grid 400":
        "e71c464de9fbe5ad1d7b477fb28ab9ab88da7b170a3f9b8202f2276b706e35b7",
    "resistance --model fibonacci --lambda 1 --energy 0 --lengths 1:1000 "
    "--leads pi-half":
        "46f7a20388649a2e50f6a700622c6a1af12f2de76a727122c9a83a689d5fcee7",
    "tracemap --model fibonacci --lambda 2 --energy 0 --steps 10":
        "296ba34aa3d3b34b8d66ddebe02f50950caabda5adfdd095db0d2c6e20039813",
    "gaps --model fibonacci --lambda 4 --approx-q 13 --labels sturmian "
    "--alpha golden":
        "866d3dbeefbb910e3c028fc700be5bbc5c8a419d93999186f816b919b6d68d36",
    "cantor --what function --grid 400":
        "0b015fede1dd9d9cb7308141203c0dc3b9ff4ecf32caf147a7bde73f994ecdb7",
    "butterfly --lambda 1.3 --qmax 12 --omega 0.21 --format json":
        "ae3d82ff7eea276d25bfa06119f81aec0be6951001c633114c822f9c20fb15db",
    "spectrum --model almost-mathieu --lambda 1.7 --omega 0.3 --approx-q 377":
        "80c085968dd833f993a0a3a018731485412cce10bd820436dee0c15ff07e4a4a",
    "ids --model fibonacci --lambda 1 --size 300 --emin -3 --emax 3 --grid 50 --format json":
        "f4a3c433df5d93af56f4cc0688214c50757d918f53d2e09e82199182373c2d35",
    "lyapunov --model almost-mathieu --lambda 3 --n 2000 --emin -5 --emax 5 --grid 40 "
    "--format json":
        "bc7619850bd7942f05e0dae90c2dc2a0cbda4341becb49a116a839f04da8bf1f",
    "resistance --model fibonacci --lambda 1 --energy 0 --lengths 1:100 --leads pi-half "
    "--format json":
        "98fcee8b1d105ec490bc717ec4b912ce572d32945dc5ea8acf28c71fb51ea975",
    "resistance --model fibonacci --lambda 1 --energy 0.5 --lengths 1:100 --leads zero "
    "--format json":
        "2439405c28106d81360f95a1ab30b22aa7ee93d3b755622d38b8b28eb9d4cf5a",
    "tracemap --model fibonacci --lambda 2 --energy 0 --steps 10 --format json":
        "16462f1e5fdfc679a852f12618f7bf8fffa13d6e3c7d03c4b71668333da09f64",
    "gaps --model fibonacci --lambda 4 --approx-q 13 --labels sturmian --alpha golden "
    "--format json":
        "1a371f728f90a34046d2c1c59056867ddbccd9b674daa1ba9be097c8c91602ad",
    "cantor --what function --grid 50 --format json":
        "f90bb9140e9a839ab06fa1c724d1d2348033a4b8c665d7d804efa99bc453e9d3",
    "spectrum --model fibonacci --lambda 2 --method bounded --emin -3 --emax 5 --depth 8 "
    "--nmax 20":
        "f9d55f945c30dce74f4f3d0d6609ef76c7e982a5c6fb7f8d8e2cfbbf3f4555e1",
    "spectrum --model fibonacci --lambda 2 --method bounded --emin -3 --emax 5 --depth 8 "
    "--nmax 20 --format json":
        "83a9f6d86b659fcf07773c339a4328b870849c641f7da3073efcc65307cc4281",
    "cantor --what fourier --grid 20 --tmax 50":
        "4d549aef60998f3b4a82b56287c05820c8220541746736cab155ff309b3fb683",
    "cantor --what fourier --grid 20 --tmax 50 --format json":
        "8e1b4860afe501114e9325999e2b824c4c62fb044de3fe5be6e07da7fc06249d",
    "cantor --what labels --kmax 5":
        "9eda66109096323dc4b112347094989aeca157b4bcba649b6a54d7f8087f9548",
    "cantor --what labels --kmax 5 --format json":
        "306ea7027e7549f090554a7f3ebc828d8a46bb4c46aabec992b273e953ef1199",
    "cantor --what hierarchical --kmax 3":
        "fd098c4ee7a33fd940667d49d6bd510a5e108654ec64317e74128b475187abb7",
    "cantor --what hierarchical --kmax 3 --format json":
        "40466bc5ab53d9ea11a5e1ab8e0c12aca6436498110bef64422e15e4b419ca14",
    "ids --model fibonacci --lambda 2 --omega 0.3 --size 100000 --grid 200":
        "7db5d4e1fe9266cadf1af7f2cc86189684f30d4a703af5d68adcf44f5f68e2cb",
    "ids --model fibonacci --lambda 2 --omega 0.3 --size 100000 --grid 200 --rounding ceil":
        "7db5d4e1fe9266cadf1af7f2cc86189684f30d4a703af5d68adcf44f5f68e2cb",
    "lyapunov --model fibonacci --lambda 2 --omega 0.3 --n 100000 --emin -3 --emax 4 --grid 200":
        "eaddc3b24d34d8fcb20b43a4c7bee1d1cdcbeef5e4674071afc44710be6e0949",
    "lyapunov --model fibonacci --lambda 2 --omega -0.71 --n 100000 --emin -3 --emax 4 "
    "--grid 200 --rounding ceil --format json":
        "961a392952c0b9268b6192374200b7c7879c2c2719ea6f5b2ac035652801a456",
}


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_bytes(command, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
    if "--format json" in command:
        strict_json(out)


def test_non_finite_cells_are_null(capsys):
    # The orbit escapes: past float range the traces and invariants are inf
    # and nan, which the CSV prints and the JSON writes as null.
    argv = shlex.split("tracemap --model fibonacci --lambda 2 --energy 0.3 --steps 40")
    assert main(argv) == 0
    csv_rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert main(argv + ["--format", "json"]) == 0
    rows = strict_json(capsys.readouterr().out)["rows"]
    assert len(rows) == len(csv_rows) == 42
    assert csv_rows[-1][1:] in (["inf", "nan"], ["-inf", "nan"])
    for row, (_, tau, inv) in zip(rows, csv_rows):
        assert (row["tau"] is None) == (tau in ("inf", "-inf"))
        assert (row["invariant"] is None) == (inv == "nan")


def test_readme_examples_are_golden():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i:i + 2]
        if argv[:1] == ["quasispec"]:
            commands.append(" ".join(argv[1:]))
    assert len(commands) == 8
    assert [c for c in commands if c not in GOLDEN] == []
