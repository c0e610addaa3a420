"""Golden bytes: the sha256 of stdout for fixed CLI commands.

The commands are the eight README examples (their ``--out`` files dropped, so
the data goes to stdout), a butterfly as JSON and an almost-Mathieu spectrum
at q = 377. Any change to a printed digit changes a hash; a kernel change that
is meant to keep the output must keep every hash.
"""

import hashlib
import shlex

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
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_bytes(command, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
