"""The output contract: every fermiqc command on a fixed input set.

Usage:
  python3 tools/outputs.py OUTDIR        write each case's <name>.out/.err/.code into OUTDIR
  python3 tools/outputs.py BEFORE AFTER  sort the files that differ into "digits only" and "other"

The cases run ``fermiqc.cli.main`` in this process from a scratch directory,
so the paths in error messages are the same in every checkout, and the
package is the one in the src/ next to this script.  tests/test_outputs.py
checks every file against tests/golden/, and ``python3 tests/test_outputs.py``
rewrites tests/golden/ from a fresh run.
"""

import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from fermiqc import cli  # noqa: E402

NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
TOKEN = re.compile(rf"{NUMBER}|[^-+.\d]+|.")
H2, H2_631G, LIH = (str(ROOT / "src" / "fermiqc" / "fixtures" / f"{name}.fcidump")
                    for name in ("h2_sto3g", "h2_631g", "lih_sto3g"))
MODES = ("canonical", "basis_shift", "ancilla")
EACH_MODE = [arg for mode in MODES for arg in ("--mode", mode)]
GOOD_ROW = " 0.5   1   1   0   0\n"

# Each case: its name, its fermiqc arguments, and the texts of the files its
# first arguments name (or the files to copy), written into the scratch
# directory before it runs.
CASES: list[tuple[str, list[str], tuple[str | Path, ...]]] = []
# Cases whose stdout becomes a file that later cases read.
SAVE = {"map-lih_sto3g-jw": "lih.terms", "compile-magnitude-canonical": "lih.circ",
        **{f"compile-lex-{mode}": f"lih-lex-{mode}.circ" for mode in ("ancilla", "canonical")},
        **{f"compile-wide-{mode}": f"wide-{mode}.circ" for mode in MODES}}
# Cases whose -o file is kept as <name>.circ: the file-write path and the seams
# between the writer's slices (8,192 lines each).
KEEP = {"compile-file": "lih-file.circ", "optimize-file": "lih-file-opt.circ"}


def case(name: str, command: str, *args: str, texts: tuple[str | Path, ...] = ()) -> None:
    CASES.append((name, [command, *args], texts))


for fixture, path in (("h2_sto3g", H2), ("h2_631g", H2_631G), ("lih_sto3g", LIH)):
    for mapping in ("jw", "bk"):
        case(f"map-{fixture}-{mapping}", "map", path, "--mapping", mapping)
for mapping in ("jw", "bk"):
    case(f"map-synthetic-{mapping}", "map", "synthetic:n=6,seed=3", "--mapping", mapping)
    # 24 spin-orbitals, the scale of perfbench's synthetic-map workload.
    case(f"map-synthetic24-{mapping}", "map", "synthetic:n=12,seed=1", "--mapping", mapping)
for ordering in ("magnitude", "lex", "lexomag", "random:7"):
    for mode in MODES:
        case(f"compile-{ordering.replace(':', '-')}-{mode}", "compile", "lih.terms",
             "--steps", "2", "--ordering", ordering, "--mode", mode)
for ordering in ("magnitude-asc", "lexomag-asc"):
    case(f"compile-{ordering}", "compile", "lih.terms", "--steps", "2", "--ordering", ordering)
# A repeated line, a pair that cancels and comes back, identity lines and -0.0
# parts (0.0 + c turns a -0.0 part into +0.0).
merge = ("(0.5,0.0) Z1\n(0.25,-0.0) X0 Y2\n(0.5,0.0) Z1\n(-0.75,0.0) Y0\n(0.75,0.0) Y0\n"
         "(-0.0,1e-13) Z0 Z2\n(0.125,0.0)\n(-0.0,-0.0)\n(-0.375,0.0) Y0\n(-0.0,0.0) X1\n")
for ordering in ("lex", "magnitude", "random:7"):
    case(f"compile-merge-{ordering.replace(':', '-')}", "compile", "merge.terms",
         "--ordering", ordering, "--mode", "basis_shift", texts=(merge,))
# 70 qubits, whose masks are ints rather than uint64: terms on qubits 0, 63, 64
# and 69 in every axis, compiled in each mode and optimized.
wide = ("(0.5,0.0) X0 Y63 Z64 X69\n(-0.25,0.0) Y0 X64\n(0.125,0.0) Z63 Y69\n"
        "(0.75,0.0) X63 X64\n(-0.375,0.0) Z0 Z69\n(0.0625,0.0) Y64\n"
        "(0.3,0.0) Y0 Z63 Y64 Z69\n(0.2,0.0) X0 X63 Y64 X69\n")
for mode in MODES:
    case(f"compile-wide-{mode}", "compile", "wide.terms", "--steps", "2", "--mode", mode,
         texts=(wide,))
    case(f"optimize-wide-{mode}", "optimize", f"wide-{mode}.circ")
# An imaginary part above the tolerance has no real rotation angle.
case("bad-compile-imaginary", "compile", "imaginary.terms",
     texts=("(0.5,0.0) X0\n(0.25,0.5) Y0 Z1\n",))
for level in ("full", "cancel", "none"):
    case(f"optimize-{level}", "optimize", "lih.circ", "--optimize", level)
case("compile-file", "compile", "lih.terms", "--steps", "2", "-o", "lih-file.circ")
case("optimize-file", "optimize", "lih-file.circ", "-o", "lih-file-opt.circ")
# A window sends far partners back to a gate-by-gate scan.
for window in ("0", "3"):
    case(f"optimize-window{window}", "optimize", "lih.circ", "--window", window)
# Two lex files: on the ancilla wire, long runs of CNOT targets; in the canonical
# one, cascades that step back onto gates whose stop is gone (1,697 rescans).
for mode in ("ancilla", "canonical"):
    case(f"optimize-lex-{mode}", "optimize", f"lih-lex-{mode}.circ")

sweep = [H2, H2_631G, LIH, "--orderings", "magnitude,lex,lexomag,random:7", *EACH_MODE]
case("bench-fixtures", "bench", *sweep)
case("bench-fixtures-workers2", "bench", *sweep, "--workers", "2")  # the serial report
case("bench-lih-error", "bench", LIH, "--error", "--format", "json", "--steps", "2")
# An ascending magnitude sort is named as it is given, and one sweep can take both.
case("bench-lih-asc", "bench", LIH, "--mapping", "jw", "--orderings", "magnitude-asc,lexomag-asc")
case("bench-lih-mixed-direction", "bench", LIH, "--mapping", "jw",
     "--orderings", "magnitude,magnitude-asc")
# The optimize levels below full, on three steps (each step optimized once).
for level in ("cancel", "none"):
    case(f"bench-lih-steps3-{level}", "bench", LIH, "--steps", "3",
         "--orderings", "magnitude,lex", *EACH_MODE, "--optimize", level)
case("trotter-error", "trotter-error", LIH, H2_631G, "--orderings", "magnitude,lex",
     "--steps", "1,20", "--time", "0.1")
# An open-shell header (NELEC=3, MS2=1), below the Fock-space minimum's electron count.
case("trotter-error-open-shell", "trotter-error", "synthetic:n=3,seed=5,density=0.8")
# 16 qubits: a coset of 16,384 states whose sign patterns exceed the budget for
# a whole-coset pattern, so each term XORs a row and a column pattern.
case("trotter-error-16q", "trotter-error", "synthetic:n=8,seed=3", "--mapping", "jw")
# --time 100 is clamped; the JSON rows carry the time used.
case("bench-lih-error-clamped", "bench", LIH, "--error", "--format", "json", "--time", "100")
# One pair completes and one fails, at load or at the matrix limit; the report keeps both.
case("bench-mixed", "bench", H2, "missing.fcidump", "--mapping", "jw")
case("trotter-error-mixed", "trotter-error", H2, "synthetic:n=9", "--mapping", "jw")

# The bad inputs of tests/test_bench.py::TestCli::test_bad_input_is_one_line
# and test_bad_input_fails_its_pair.
case("bad-trotter-error-missing", "trotter-error", "missing.fcidump")
case("bad-trotter-error-malformed", "trotter-error", "bad.fcidump",
     texts=("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.5 1 1\n",))
case("bad-trotter-error-map-limit", "trotter-error", "big.fcidump",
     texts=("&FCI NORB=33,NELEC=2,MS2=0,\n&END\n" + GOOD_ROW,))
case("bad-trotter-error-matrix-limit", "trotter-error", "synthetic:n=9")
case("bad-map-malformed", "map", "bad.fcidump")
for command, ext in (("map", "fcidump"), ("compile", "terms"), ("optimize", "circ")):
    case(f"bad-{command}-missing", command, f"missing.{ext}")
case("bad-map-negative-norb", "map", "neg.fcidump", texts=("&FCI NORB=-1,NELEC=2,\n&END\n",))
for key, header in (("norb", "NORB=,NELEC=2,"), ("nelec", "NORB=2,NELEC=,"),
                    ("ms2", "NORB=2,NELEC=2,MS2=,")):
    case(f"bad-map-empty-{key}", "map", f"empty-{key}.fcidump", texts=(f"&FCI {header}\n&END\n",))
# A header closed by a slash on its own line, and a header error below two
# comment lines, which names the header's line.
case("map-fcidump-slash-header", "map", "slash.fcidump",
     texts=("&FCI NORB=1,NELEC=2,MS2=0 /\n" + GOOD_ROW,))
case("bad-map-header-after-comments", "map", "commented.fcidump",
     texts=("# c\n# c\n&FCI NORB=,NELEC=2,\n&END\n",))
case("bad-map-density", "map", "synthetic:n=2,density=2")
case("bad-map-negative-seed", "map", "synthetic:n=2,seed=-1")
case("bad-bench-negative-seed", "bench", "synthetic:n=2,seed=-1")
# Integrals of NORB=3000 would need 589 TiB; the header's NORB meets the map limit first.
case("bad-map-unallocatable", "map", "huge.fcidump",
     texts=("&FCI NORB=3000,NELEC=2,MS2=0,\n&END\n",))
case("bad-trotter-error-unallocatable", "trotter-error", "huge.fcidump")
# Two distinct inputs may not share a system name: two h2.fcidump files, and
# two densities that :g rounds to one.
case("bad-bench-shared-system", "bench", "a/h2.fcidump", "b/h2.fcidump", "--mapping", "jw",
     texts=(Path(H2), Path(H2_631G)))
case("bad-trotter-error-shared-system", "trotter-error", "synthetic:n=2,density=0.1234567",
     "synthetic:n=2,density=0.1234568")
# Headers whose NELEC and MS2 name no sector: only the exact energy rejects them.
for sector, nelec, ms2 in (("parity", 3, 0), ("spin", 1, 3), ("full", 6, 0)):
    case(f"bad-trotter-error-sector-{sector}", "trotter-error", f"{sector}.fcidump",
         texts=(f"&FCI NORB=2,NELEC={nelec},MS2={ms2},\n&END\n" + GOOD_ROW,))
case("map-sector-parity", "map", "parity.fcidump")
case("bad-bench-error-sector", "bench", "parity.fcidump", "--error", "--format", "json")
case("bad-bench-density", "bench", "synthetic:n=2,density=nan")
# A --time that is not finite is a usage error, as one that is not positive is.
case("bad-compile-time-nan", "compile", "lih.terms", "--time", "nan")
case("bad-trotter-error-time-inf", "trotter-error", H2, "--time", "inf")
case("bad-trotter-error-steps-list", "trotter-error", H2, "--steps", "1,x")
case("bad-trotter-error-steps-zero", "trotter-error", H2, "--steps", "0")
case("bad-bench-orderings", "bench", H2, "--orderings", "bogus")

# FCIDUMP body rows: a comment line, then one fault per file.
body = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n{}\n" + GOOD_ROW
case("map-fcidump-body-comment", "map", "body-comment.fcidump", texts=(body.format("# a note"),))
for fault, row in (("row", " 0.5 1 x 0 0"), ("range", " 0.5 3 1 0 0"), ("one-body", " 0.5 1 0 0 0"),
                   ("two-body", " 0.5 1 1 0 1"), ("inf", " inf 1 1 0 0")):
    case(f"bad-map-{fault}", "map", f"{fault}.fcidump", texts=(body.format(row),))
# Term files: comment and blank lines, then one fault per file.
case("compile-comments", "compile", "comments.terms",
     texts=("# a note\n\n(0.5,0.0) X0 Z1\n   # indented\n\n(0.25,0.0) Y1\n",))
for fault, line in (("form", "0.5 X0"), ("coefficient", "(0.5,x) X0"), ("twice", "(0.5,0.0) X0 Z0"),
                    ("axis", "(0.5,0.0) W0"), ("index", "(0.5,0.0) Xa")):
    case(f"bad-compile-{fault}", "compile", f"{fault}.terms", texts=(line + "\n",))
case("bad-compile-outside", "compile", "outside.terms", "--qubits", "2",
     texts=("(0.5,0.0) X0 Z3\n",))

# Circuit files: CZ operands in either order, a run of three H, a circuit on no
# qubits (an identity-only term file), indented comment lines, and bad lines.
case("optimize-cz", "optimize", "cz.circ",
     texts=("QUBITS 3 ANCILLA 0\nCZ 2 1\nCZ 1 2\nH 0\nH 0\n",))
case("optimize-h3", "optimize", "h3.circ", texts=("QUBITS 1 ANCILLA 0\nH 0\nH 0\nH 0\n",))
case("compile-identity", "compile", "identity.terms", "-o", "identity.circ", texts=("(0.5,0.0)\n",))
case("optimize-identity", "optimize", "identity.circ")
case("optimize-comments", "optimize", "comments.circ",
     texts=("  # note\nQUBITS 2 ANCILLA 0\n\t# note\nH 0\n   #\nH 0\nCNOT 0 1\n",))
for fault, file, text in (
        ("negative-qubits", "neg", "QUBITS -2 ANCILLA 0\nH 0\n"),
        ("nan", "nan", "QUBITS 1 ANCILLA 0\nH 0\nRZ 0 nan\nH 0\n"),
        ("ancilla", "anc", "QUBITS 1 ANCILLA 5\nH 0\n"),
        ("kind", "kind", "QUBITS 1 ANCILLA 0\nFOO 0\n"),
        ("operands", "operands", "QUBITS 2 ANCILLA 0\nCNOT 0\n"),
        ("outside", "outside", "QUBITS 1 ANCILLA 0\nH 1\n"),
        ("comments-only", "comments-only", "# a\n# b\n")):
    case(f"bad-optimize-{fault}", "optimize", f"{file}.circ", texts=(text,))


def write(outdir: Path) -> None:
    """Run every case, writing its stdout, stderr and exit status into outdir."""
    outdir = outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, args, texts in CASES:
            for path, text in zip(map(Path, args[1:]), texts):
                path.parent.mkdir(exist_ok=True)
                if isinstance(text, Path):
                    shutil.copy(text, path)
                else:
                    path.write_text(text)
            result = runner.invoke(cli.main, args, prog_name="python -m fermiqc.cli")
            if not isinstance(result.exception, (SystemExit, type(None))):
                raise RuntimeError(f"case {name} raised") from result.exception
            (outdir / f"{name}.out").write_bytes(result.stdout_bytes)
            (outdir / f"{name}.err").write_bytes(result.stderr_bytes)
            (outdir / f"{name}.code").write_text(f"{result.exit_code}\n")
            if name in SAVE:
                Path(SAVE[name]).write_bytes(result.stdout_bytes)
            if name in KEEP:
                shutil.copy(KEEP[name], outdir / f"{name}.circ")


def digits_only(a: Path, b: Path) -> bool:
    """The same tokens but for numbers within 1e-10 * max(1, |a|) of each other."""
    def same(x: str, y: str) -> bool:
        try:
            return x == y or abs(float(x) - float(y)) <= 1e-10 * max(1.0, abs(float(x)))
        except ValueError:
            return False
    if not (a.is_file() and b.is_file()):
        return False
    ta, tb = TOKEN.findall(a.read_text()), TOKEN.findall(b.read_text())
    return len(ta) == len(tb) and all(map(same, ta, tb))


def compare(before: Path, after: Path) -> dict[str, list[str]]:
    """The files that differ: "digits only" by that rule, or "other" (a file
    missing on one side included)."""
    groups: dict[str, list[str]] = {"digits only": [], "other": []}
    for name in sorted({p.name for d in (before, after) for p in d.iterdir()}):
        a, b = before / name, after / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            groups["digits only" if digits_only(a, b) else "other"].append(name)
    return groups


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        write(Path(argv[0]))
    elif len(argv) == 2:
        groups = compare(Path(argv[0]), Path(argv[1]))
        for label, names in groups.items():
            print(f"{label}: {len(names)}", *(f"  {name}" for name in names), sep="\n")
        return 1 if groups["other"] else 0
    else:
        sys.exit(__doc__.split("\n\n")[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
