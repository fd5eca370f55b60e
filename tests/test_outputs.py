"""The output contract: every case of tools/outputs.py against tests/golden/.

tests/golden/outputs.sha256 holds, for each output file, the SHA-256 of its
bytes and of its text with every number masked, so a file that moved is
named with its class: "digits only" if only its numbers moved, else "other".
The NUMERIC outputs carry the Lanczos solver's energies, whose last digits
move with the BLAS thread count; they are also kept verbatim beside the
manifest and need only agree by ``outputs.digits_only``.

A change that moves output bytes on purpose rewrites tests/golden/ with

    python3 tests/test_outputs.py

which prints each entry that moved, with its class, and keeps the old bytes of
a verbatim file that still agrees, so the diff holds only the moved entries.
"""

import fnmatch
import hashlib
import importlib.util
import re
import shutil
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

GOLDEN, MANIFEST = ROOT / "tests" / "golden", "outputs.sha256"
NUMERIC = ("bench-*error*.out", "trotter-error*.out")


def digests(data: bytes) -> tuple[str, str]:
    """The SHA-256 of a file's bytes, and that of its text with every number masked."""
    masked = re.sub(outputs.NUMBER, "#", data.decode()).encode()
    return hashlib.sha256(data).hexdigest(), hashlib.sha256(masked).hexdigest()


def check(outdir: Path, golden: Path = GOLDEN) -> dict[str, str]:
    """Each file of outdir or of golden's manifest that moved, by name, with
    its class; a new or missing file is "other"."""
    manifest = golden / MANIFEST
    lines = manifest.read_text().splitlines() if manifest.is_file() else []
    want = {name: (digest, masked) for digest, masked, name in
            (line.split() for line in lines if not line.startswith("#"))}
    have = {p.name: digests(p.read_bytes()) for p in outdir.iterdir()}
    moved = {}
    for name in sorted(want.keys() | have.keys()):
        if name not in want or name not in have:
            moved[name] = "other"
        elif want[name] != have[name] and not outputs.digits_only(golden / name, outdir / name):
            moved[name] = "digits only" if want[name][1] == have[name][1] else "other"
    return moved


def rewrite(outdir: Path, golden: Path = GOLDEN) -> dict[str, str]:
    """Rewrite golden from outdir, and return what moved, as check does."""
    moved = check(outdir, golden)
    files = {p.name: p.read_bytes() for p in outdir.iterdir()}
    files.update({p.name: p.read_bytes() for p in golden.glob("*.out") if p.name not in moved})
    shutil.rmtree(golden, ignore_errors=True)
    golden.mkdir(parents=True)
    lines = ["# sha256, sha256 with numbers masked, file; python3 tests/test_outputs.py\n"]
    for name in sorted(files):
        lines.append("{} {} {}\n".format(*digests(files[name]), name))
        if any(fnmatch.fnmatch(name, pattern) for pattern in NUMERIC):
            (golden / name).write_bytes(files[name])
    (golden / MANIFEST).write_text("".join(lines))
    return moved


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("outputs")
    outputs.write(outdir)
    return outdir


def test_every_output_matches_the_golden_manifest(written):
    moved = check(written)
    assert not moved, "outputs moved from tests/golden/:\n" + "\n".join(
        f"  {label}: {name}" for name, label in moved.items())


def test_the_process_pool_writes_the_serial_report(written):
    assert (written / "bench-fixtures-workers2.out").read_bytes() == \
        (written / "bench-fixtures.out").read_bytes()


def test_a_case_that_raises_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(outputs, "CASES", [("bad", ["map", "synthetic:n=2"], ())])
    monkeypatch.setattr(outputs.cli.bench_mod, "pair_stages", lambda *a: 1 / 0)
    with pytest.raises(RuntimeError, match="case bad raised"):
        outputs.write(tmp_path)
    assert not list(tmp_path.iterdir())


def make(directory: Path, files: dict[str, str]) -> Path:
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


class TestCompare:
    BEFORE = {"same.out": "gates 12\n", "near.out": "energy -1.5 at t=0.1\n",
              "far.out": "energy -1.5\n", "word.err": "Error: line 3\n", "gone.code": "0\n"}

    def test_files_are_sorted_into_digits_only_and_other(self, tmp_path):
        after = {**self.BEFORE, "near.out": "energy -1.50000000000001 at t=0.1\n",
                 "far.out": "energy -1.5000001\n", "word.err": "Warning: line 3\n"}
        del after["gone.code"]
        before, after = make(tmp_path / "a", self.BEFORE), make(tmp_path / "b", after)
        assert outputs.compare(before, after) == {
            "digits only": ["near.out"], "other": ["far.out", "gone.code", "word.err"]}
        assert outputs.main([str(before), str(after)]) == 1

    def test_exit_status_is_zero_without_other(self, tmp_path):
        before = make(tmp_path / "a", self.BEFORE)
        assert outputs.main([str(before), str(make(tmp_path / "b", self.BEFORE))]) == 0
        near = make(tmp_path / "c",
                    {**self.BEFORE, "near.out": "energy -1.5 at t=0.10000000000001\n"})
        assert outputs.compare(before, near) == {"digits only": ["near.out"], "other": []}
        assert outputs.main([str(before), str(near)]) == 0

    def test_the_rule_is_relative_above_one(self, tmp_path):
        a = make(tmp_path / "a", {"x": "1000.0", "y": "0.001"})
        b = make(tmp_path / "b", {"x": "1000.00000001", "y": "0.0010000002"})
        assert outputs.compare(a, b) == {"digits only": ["x"], "other": ["y"]}


class TestCheck:
    def golden(self, tmp_path, files):
        golden = tmp_path / "golden"
        assert set(rewrite(make(tmp_path / "run", files), golden)) == set(files)
        return golden

    def test_moved_files_are_named_with_their_class(self, tmp_path):
        files = {"a.out": "gates 12\n", "b.err": "Error: line 3\n", "c.code": "0\n"}
        golden = self.golden(tmp_path, files)
        assert check(tmp_path / "run", golden) == {}
        moved = make(tmp_path / "moved", {"a.out": "gates 13\n", "b.err": "Error: row 3\n",
                                          "d.code": "1\n"})
        assert check(moved, golden) == {"a.out": "digits only", "b.err": "other",
                                        "c.code": "other", "d.code": "other"}

    def test_a_verbatim_file_agrees_within_the_rule(self, tmp_path):
        golden = self.golden(tmp_path, {"trotter-error.out": '{"exact": -1.5}\n',
                                        "bench-x.out": "-1.5\n"})
        assert sorted(p.name for p in golden.iterdir()) == [MANIFEST, "trotter-error.out"]
        near = make(tmp_path / "near", {"trotter-error.out": '{"exact": -1.500000000000021}\n',
                                        "bench-x.out": "-1.500000000000021\n"})
        assert check(near, golden) == {"bench-x.out": "digits only"}
        # Rewriting keeps the verbatim file's old bytes: only the moved entry changes.
        manifest = (golden / MANIFEST).read_text().splitlines()
        assert rewrite(near, golden) == {"bench-x.out": "digits only"}
        assert (golden / "trotter-error.out").read_text() == '{"exact": -1.5}\n'
        changed = set((golden / MANIFEST).read_text().splitlines()) ^ set(manifest)
        assert {line.split()[2] for line in changed} == {"bench-x.out"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs.write(Path(tmp))
        for name, label in rewrite(Path(tmp)).items():
            print(f"{label}: {name}")
