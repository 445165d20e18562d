"""File-level integration: .anf / DIMACS round trips through the CLI."""

import subprocess
import sys

from repro.anf import parse_system
from repro.cli import main as cli_main
from repro.gen import main as gen_main
from repro.sat import Solver, parse_dimacs
from repro.sat.types import TRUE


def test_anf_to_cnf_file_solvable_externally(tmp_path):
    """The CNF the CLI writes must be solvable and consistent with the ANF."""
    anf_path = tmp_path / "in.anf"
    anf_path.write_text("x1*x2 + x3 + 1\nx1 + x2\nx3 + x2 + 1\n")
    cnf_path = tmp_path / "out.cnf"
    cli_main(["--anfread", str(anf_path), "--cnfwrite", str(cnf_path),
              "--verb", "0"])
    formula = parse_dimacs(cnf_path.read_text())
    solver = Solver()
    solver.ensure_vars(formula.n_vars)
    for c in formula.clauses:
        solver.add_clause(c)
    assert solver.solve() is True
    model = [1 if v == TRUE else 0 for v in solver.model]
    _, polys = parse_system(anf_path.read_text())
    padded = model + [0] * 10
    assert all(p.evaluate(padded) == 0 for p in polys)


def test_processed_anf_file_reparses_and_preserves_solutions(tmp_path):
    anf_path = tmp_path / "in.anf"
    anf_path.write_text("x1*x2 + x3\nx2 + 1\n")
    out_path = tmp_path / "out.anf"
    cli_main(["--anfread", str(anf_path), "--anfwrite", str(out_path),
              "--verb", "0"])
    _, original = parse_system(anf_path.read_text())
    _, processed = parse_system(out_path.read_text())
    import itertools
    for bits in itertools.product([0, 1], repeat=4):
        orig_ok = all(p.evaluate(list(bits)) == 0 for p in original)
        proc_ok = all(p.evaluate(list(bits)) == 0 for p in processed)
        assert orig_ok == proc_ok


def test_gen_then_preprocess_then_final_solve(tmp_path):
    """The full toolchain: generator → preprocessor → DIMACS → solver."""
    inst = tmp_path / "speck.anf"
    assert gen_main(["speck", "--plaintexts", "1", "--rounds", "2",
                     "--seed", "17", "--out", str(inst)]) == 0
    cnf = tmp_path / "speck.cnf"
    code = cli_main(["--anfread", str(inst), "--cnfwrite", str(cnf),
                     "--verb", "0"])
    formula = parse_dimacs(cnf.read_text())
    solver = Solver()
    solver.ensure_vars(formula.n_vars)
    ok = all(solver.add_clause(c) for c in formula.clauses)
    assert ok and solver.solve() is True


def test_module_entry_points_run():
    """`python -m repro` and `python -m repro.gen` exist and print usage."""
    for module in ("repro", "repro.gen"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()
