"""Reference runs: six short CLI runs whose stdout, findings file and
.argmin.mat must stay byte-identical.

Each run executes in a fresh directory with relative output paths, so the
paths it prints are the same everywhere. The pinned values are sha256
digests of the bytes, with the exit code. After an intended change of any
of these outputs, re-pin by running this file as a script
(`python tests/test_reference_runs.py`, with `src` on the path), which
prints the current digests, and record the change and its reason in
CHANGES.md.
"""

import hashlib
import io
import os
import tempfile
from contextlib import redirect_stdout

import pytest

from alphaperm.cli import main

# name -> (argv, exit code, {output: sha256})
REFERENCE_RUNS = {
    "hunt-lieb-type-hermitian": (
        ["hunt", "--target", "lieb-type", "--kind", "hermitian", "--n", "5",
         "--trials", "16", "--seed", "1", "--keep-smallest", "2"], 0, {
            "stdout": "4cf47bcfe4525001099b383318095e4a"
                      "ccf9cd501a9add1787ed0f930d3fcf11",
            "findings": "11a5ecdf04699f54a08f054e93c9abe5"
                        "a475e2d8f0e5e8fea876ec8de877f7a8",
            "argmin": "4773d45346929f71a4dcb68d3e2c226d"
                      "f2c8528b09a8dae4c26cf7bf22823ed6"}),
    # the known counterexample: one violation and one sign record
    "hunt-lieb-type-pin": (
        ["hunt", "--target", "lieb-type", "--n", "4", "--trials", "1",
         "--seed", "141", "--alpha", "13/10"], 1, {
            "stdout": "26b8d4f18120ab7adc2469b05094dea4"
                      "75c67f8543fc9a19d7ddce6c5cf82162",
            "findings": "844f3819445f21140cf9a37c8c96cfb8"
                        "c3308556fb445429275df2bd512be0f5",
            "argmin": "59349852eb9091c74475a07cea1e3a31"
                      "d6f4fce8d577dcb8982e6d76ed425f80"}),
    "hunt-marcus": (
        ["hunt", "--target", "marcus", "--n", "5", "--trials", "64",
         "--seed", "1", "--keep-smallest", "3"], 0, {
            "stdout": "ae7564e372be5cc316532c1fe78ee092"
                      "020c5358b5c93e1c9110203ef2c6d8c9",
            "findings": "85b6a4178f8dfaa78d26b4ee2ae0f974"
                        "fbc31ca77471f6d98a5ddbad8eba7385",
            "argmin": "0af33eb64ef139fe9602a1fcd2d782fa"
                      "ab2e6e7fe0c532849a2a3625927af5c9"}),
    "check-all": (
        ["check", "--suite", "all", "--trials", "6", "--seed", "1"], 0, {
            "stdout": "6b28c39fc27b0ba17b897ae87125ff9c"
                      "491e329972d872a271c2b9ee3c0e808e"}),
    # every exact alpha-family at once, with neg-positivity violations
    "hunt-alpha-families": (
        ["hunt", "--target", "lieb-type,marcus,neg-positivity", "--n", "6",
         "--trials", "32", "--seed", "1", "--keep-smallest", "2"], 1, {
            "stdout": "25a405fa61a17bbf4c38d973c1cd3f78"
                      "8237d2768c4d6db6dd0fe0ab48ddc910",
            "findings": "6d009b3eb5b137fd8f58e338bfc78eb6"
                        "3d848d7e4adee44cb4640da6b9886f77",
            "argmin": "252ca4a85b0066b0268a1220eb075032"
                      "31c0421cb259ba5b3f7de11de4455b06"}),
    "check-inequalities-float": (
        ["check", "--suite", "inequalities", "--mode", "float", "--trials",
         "6", "--seed", "1"], 0, {
            "stdout": "72414e5200ac61b3c237fce94af91cc3"
                      "207df97785290a50593a656f57bd4644"}),
}

# the files a hunt writes with --out run.jsonl
_FILES = {"findings": "run.jsonl", "argmin": "run.argmin.mat"}


def run_digests(argv, directory) -> tuple:
    """(exit code, {output: sha256}) of one CLI run inside directory."""
    if argv[0] == "hunt":
        argv = argv + ["--out", _FILES["findings"]]
    here = os.getcwd()
    out = io.StringIO()
    os.chdir(directory)
    try:
        with redirect_stdout(out):
            code = main(argv)
        digests = {"stdout": out.getvalue().encode("ascii")}
        for key, name in _FILES.items():
            if os.path.exists(name):
                with open(name, "rb") as fh:
                    digests[key] = fh.read()
    finally:
        os.chdir(here)
    return code, {key: hashlib.sha256(data).hexdigest()
                  for key, data in digests.items()}


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_outputs_are_byte_identical(name, tmp_path):
    argv, code, digests = REFERENCE_RUNS[name]
    assert run_digests(argv, tmp_path) == (code, digests)


if __name__ == "__main__":
    for name, (argv, _, _) in REFERENCE_RUNS.items():
        with tempfile.TemporaryDirectory() as directory:
            print(name, *run_digests(argv, directory))
