#!/usr/bin/env bash
# Write the outputs of all five commands on a fixed input set into OUTDIR.
#
# Usage: tools/outputs.sh OUTDIR
#
# Each command's stdout goes to <name>.out, its stderr to <name>.err and its
# exit status to <name>.code.  The package is imported from the src/ next to
# this script, so running the script in two checkouts and comparing with
# `diff -r` shows every byte a change moves:
#
#   tools/outputs.sh /tmp/after
#   (cd ../other-checkout && /path/to/tools/outputs.sh /tmp/before)
#   diff -r /tmp/before /tmp/after
#
# A copy of the script placed in the other checkout's tools/ runs that
# checkout's code.  `python3 tools/compare_outputs.py /tmp/before /tmp/after`
# sorts the differing files into those that moved only in number digits and
# all others.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
fixtures="$root/src/fermiqc/fixtures"
export PYTHONPATH="$root/src"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run NAME ARGS...: one fermiqc invocation from the scratch directory, so
# the relative paths in error messages are the same in every checkout.
run() {
    local name=$1
    shift
    local code=0
    (cd "$work" && python3 -m fermiqc.cli "$@") >"$out/$name.out" 2>"$out/$name.err" || code=$?
    echo "$code" >"$out/$name.code"
}

for fixture in h2_sto3g h2_631g lih_sto3g; do
    for mapping in jw bk; do
        run "map-$fixture-$mapping" map "$fixtures/$fixture.fcidump" --mapping "$mapping"
    done
done
for mapping in jw bk; do
    run "map-synthetic-$mapping" map synthetic:n=6,seed=3 --mapping "$mapping"
    # 24 spin-orbitals, the scale of perfbench's synthetic-map workload.
    run "map-synthetic24-$mapping" map synthetic:n=12,seed=1 --mapping "$mapping"
done

cp "$out/map-lih_sto3g-jw.out" "$work/lih.terms"
for ordering in magnitude lex lexomag random:7; do
    for mode in canonical basis_shift ancilla; do
        run "compile-${ordering/:/-}-$mode" compile lih.terms --steps 2 \
            --ordering "$ordering" --mode "$mode"
    done
done

for ordering in magnitude-asc lexomag-asc; do
    run "compile-$ordering" compile lih.terms --steps 2 --ordering "$ordering"
done

# A hand-written term file: a repeated line, a pair that cancels and comes
# back, identity lines and -0.0 parts (0.0 + c turns a -0.0 part into +0.0).
cat >"$work/merge.terms" <<'TERMS'
(0.5,0.0) Z1
(0.25,-0.0) X0 Y2
(0.5,0.0) Z1
(-0.75,0.0) Y0
(0.75,0.0) Y0
(-0.0,1e-13) Z0 Z2
(0.125,0.0)
(-0.0,-0.0)
(-0.375,0.0) Y0
(-0.0,0.0) X1
TERMS
for ordering in lex magnitude random:7; do
    run "compile-merge-${ordering/:/-}" compile merge.terms --ordering "$ordering" \
        --mode basis_shift
done
# A 70-qubit term file, whose masks are ints rather than uint64: terms on
# qubits 0, 63, 64 and 69 in every axis, compiled in each mode and optimized.
cat >"$work/wide.terms" <<'TERMS'
(0.5,0.0) X0 Y63 Z64 X69
(-0.25,0.0) Y0 X64
(0.125,0.0) Z63 Y69
(0.75,0.0) X63 X64
(-0.375,0.0) Z0 Z69
(0.0625,0.0) Y64
(0.3,0.0) Y0 Z63 Y64 Z69
(0.2,0.0) X0 X63 Y64 X69
TERMS
for mode in canonical basis_shift ancilla; do
    run "compile-wide-$mode" compile wide.terms --steps 2 --mode "$mode"
    cp "$out/compile-wide-$mode.out" "$work/wide-$mode.circ"
    run "optimize-wide-$mode" optimize "wide-$mode.circ"
done
# A term with an imaginary part above the tolerance has no real rotation angle.
printf '(0.5,0.0) X0\n(0.25,0.5) Y0 Z1\n' >"$work/imaginary.terms"
run bad-compile-imaginary compile imaginary.terms

cp "$out/compile-magnitude-canonical.out" "$work/lih.circ"
for level in full cancel none; do
    run "optimize-$level" optimize lih.circ --optimize "$level"
done
# The same two commands writing with -o: the file-write path and the seams
# between the writer's slices (8,192 lines each) are compared too.
run compile-file compile lih.terms --steps 2 -o lih-file.circ
cp "$work/lih-file.circ" "$out/compile-file.circ"
run optimize-file optimize lih-file.circ -o lih-file-opt.circ
cp "$work/lih-file-opt.circ" "$out/optimize-file.circ"
# A window sends far partners back to a gate-by-gate scan.
for window in 0 3; do
    run "optimize-window$window" optimize lih.circ --window "$window"
done
# Two lex files: on the ancilla wire, long runs of CNOT targets; in the canonical
# one, cascades that step back onto gates whose stop is gone (1,697 rescans).
for mode in ancilla canonical; do
    cp "$out/compile-lex-$mode.out" "$work/lih-lex-$mode.circ"
    run "optimize-lex-$mode" optimize "lih-lex-$mode.circ"
done

run bench-fixtures bench "$fixtures/h2_sto3g.fcidump" "$fixtures/h2_631g.fcidump" \
    "$fixtures/lih_sto3g.fcidump" --orderings magnitude,lex,lexomag,random:7 \
    --mode canonical --mode basis_shift --mode ancilla
run bench-lih-error bench "$fixtures/lih_sto3g.fcidump" --error --format json --steps 2
# An ascending magnitude sort is named as it is given (magnitude-asc, lexomag-asc),
# and one sweep can take both directions.
run bench-lih-asc bench "$fixtures/lih_sto3g.fcidump" --mapping jw \
    --orderings magnitude-asc,lexomag-asc
run bench-lih-mixed-direction bench "$fixtures/lih_sto3g.fcidump" --mapping jw \
    --orderings magnitude,magnitude-asc
# The optimize levels below full, on three steps (each step optimized once).
for level in cancel none; do
    run "bench-lih-steps3-$level" bench "$fixtures/lih_sto3g.fcidump" --steps 3 \
        --orderings magnitude,lex --mode canonical --mode basis_shift --mode ancilla \
        --optimize "$level"
done
run trotter-error trotter-error "$fixtures/lih_sto3g.fcidump" "$fixtures/h2_631g.fcidump" \
    --orderings magnitude,lex --steps 1,20 --time 0.1
# An open-shell header (NELEC=3, MS2=1), below the Fock-space minimum's electron count.
run trotter-error-open-shell trotter-error synthetic:n=3,seed=5,density=0.8
# 16 qubits: a coset of 16,384 states whose sign patterns exceed the budget for
# a whole-coset pattern, so each term XORs a row and a column pattern.
run trotter-error-16q trotter-error synthetic:n=8,seed=3 --mapping jw
# --time 100 is clamped; the JSON rows carry the time used.
run bench-lih-error-clamped bench "$fixtures/lih_sto3g.fcidump" --error --format json --time 100
# One pair completes and one fails at load; the report keeps both.
run bench-mixed bench "$fixtures/h2_sto3g.fcidump" missing.fcidump --mapping jw
# One pair completes and one fails at the matrix limit; the report keeps both.
run trotter-error-mixed trotter-error "$fixtures/h2_sto3g.fcidump" synthetic:n=9 --mapping jw

# The bad inputs of tests/test_bench.py::TestCli::test_bad_input_is_one_line and
# test_bad_input_fails_its_pair.
printf '&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.5 1 1\n' >"$work/bad.fcidump"
printf '&FCI NORB=33,NELEC=2,MS2=0,\n&END\n 0.5   1   1   0   0\n' >"$work/big.fcidump"
printf '&FCI NORB=-1,NELEC=2,\n&END\n' >"$work/neg.fcidump"
printf '&FCI NORB=,NELEC=2,\n&END\n' >"$work/empty-norb.fcidump"
printf '&FCI NORB=2,NELEC=,\n&END\n' >"$work/empty-nelec.fcidump"
printf '&FCI NORB=2,NELEC=2,MS2=,\n&END\n' >"$work/empty-ms2.fcidump"
run bad-trotter-error-missing trotter-error missing.fcidump
run bad-trotter-error-malformed trotter-error bad.fcidump
run bad-trotter-error-map-limit trotter-error big.fcidump
run bad-trotter-error-matrix-limit trotter-error synthetic:n=9
run bad-map-malformed map bad.fcidump
run bad-map-missing map missing.fcidump
run bad-compile-missing compile missing.terms
run bad-optimize-missing optimize missing.circ
run bad-map-negative-norb map neg.fcidump
for key in norb nelec ms2; do
    run "bad-map-empty-$key" map "empty-$key.fcidump"
done
# A header closed by a slash on its own line, and a header error below two
# comment lines, which names the header's line.
printf '&FCI NORB=1,NELEC=2,MS2=0 /\n 0.5   1   1   0   0\n' >"$work/slash.fcidump"
run map-fcidump-slash-header map slash.fcidump
printf '# c\n# c\n&FCI NORB=,NELEC=2,\n&END\n' >"$work/commented.fcidump"
run bad-map-header-after-comments map commented.fcidump
run bad-map-density map synthetic:n=2,density=2
run bad-map-negative-seed map synthetic:n=2,seed=-1
run bad-bench-negative-seed bench synthetic:n=2,seed=-1
# Integrals of NORB=3000 would need 589 TiB; the header's NORB meets the map
# limit first.
printf '&FCI NORB=3000,NELEC=2,MS2=0,\n&END\n' >"$work/huge.fcidump"
run bad-map-unallocatable map huge.fcidump
run bad-trotter-error-unallocatable trotter-error huge.fcidump
# Two distinct inputs may not share a system name: two h2.fcidump files, and
# two densities that :g rounds to one.
mkdir -p "$work/a" "$work/b"
cp "$fixtures/h2_sto3g.fcidump" "$work/a/h2.fcidump"
cp "$fixtures/h2_631g.fcidump" "$work/b/h2.fcidump"
run bad-bench-shared-system bench a/h2.fcidump b/h2.fcidump --mapping jw
run bad-trotter-error-shared-system trotter-error synthetic:n=2,density=0.1234567 \
    synthetic:n=2,density=0.1234568
# Headers whose NELEC and MS2 name no sector: only the exact energy rejects them.
for sector in "parity 3 0" "spin 1 3" "full 6 0"; do
    read -r name nelec ms2 <<<"$sector"
    printf '&FCI NORB=2,NELEC=%s,MS2=%s,\n&END\n 0.5   1   1   0   0\n' "$nelec" "$ms2" \
        >"$work/$name.fcidump"
    run "bad-trotter-error-sector-$name" trotter-error "$name.fcidump"
done
run map-sector-parity map parity.fcidump
run bad-bench-error-sector bench parity.fcidump --error --format json
run bad-bench-density bench synthetic:n=2,density=nan
# A --time that is not finite is a usage error, as one that is not positive is.
run bad-compile-time-nan compile lih.terms --time nan
run bad-trotter-error-time-inf trotter-error "$fixtures/h2_sto3g.fcidump" --time inf

# Circuit files: CZ operands in either order, and bad headers.
printf 'QUBITS 3 ANCILLA 0\nCZ 2 1\nCZ 1 2\nH 0\nH 0\n' >"$work/cz.circ"
run optimize-cz optimize cz.circ
printf 'QUBITS -2 ANCILLA 0\nH 0\n' >"$work/neg.circ"
printf 'QUBITS 1 ANCILLA 5\nH 0\n' >"$work/anc.circ"
# An identity-only term file compiles to a circuit on no qubits.
printf '(0.5,0.0)\n' >"$work/identity.terms"
run compile-identity compile identity.terms -o identity.circ
run optimize-identity optimize identity.circ
# Indented comment lines, before the header and between gates.
printf '  # note\nQUBITS 2 ANCILLA 0\n\t# note\nH 0\n   #\nH 0\nCNOT 0 1\n' >"$work/comments.circ"
run optimize-comments optimize comments.circ
run bad-optimize-negative-qubits optimize neg.circ
printf 'QUBITS 1 ANCILLA 0\nH 0\nRZ 0 nan\nH 0\n' >"$work/nan.circ"
run bad-optimize-nan optimize nan.circ
run bad-optimize-ancilla optimize anc.circ
