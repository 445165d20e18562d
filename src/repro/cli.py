"""Command-line interface mirroring the Bosphorus tool.

Examples::

    bosphorus-py --anfread problem.anf --cnfwrite out.cnf
    bosphorus-py --cnfread problem.cnf --cnfwrite processed.cnf
    bosphorus-py --anfread problem.anf --solve --solver cms

Reads a problem in ANF (``.anf`` text format) or CNF (DIMACS), runs the
fact-learning loop, and writes the processed ANF/CNF.  With ``--solve``
the processed CNF is handed to one of the three final-solver
personalities and the verdict is printed in SAT-competition style
(``s SATISFIABLE`` / ``v`` model lines).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .anf import read_anf, write_anf
from .core.bosphorus import Bosphorus, STATUS_SAT, STATUS_UNSAT
from .core.config import Config
from .obs import NULL_TRACER, Tracer
from .portfolio.backends import PERSONALITIES
from .sat.dimacs import read_dimacs, write_dimacs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosphorus-py",
        description="ANF/CNF fact-learning preprocessor (Bosphorus reproduction)",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--anfread", metavar="FILE", help="input problem in ANF")
    src.add_argument("--cnfread", metavar="FILE", help="input problem in DIMACS CNF")
    parser.add_argument("--anfwrite", metavar="FILE", help="write processed ANF")
    parser.add_argument("--cnfwrite", metavar="FILE", help="write processed CNF")
    parser.add_argument("--solve", action="store_true",
                        help="run a final SAT solver on the processed CNF")
    parser.add_argument("--solver", choices=PERSONALITIES,
                        default="cms", help="final solver personality")
    final = parser.add_mutually_exclusive_group()
    final.add_argument("--backend", metavar="SPEC", default=None,
                       help="final solver as a portfolio backend spec: a "
                            "personality ('cms'), a seed-diversified copy "
                            "('cms@7'), or an external binary over strict "
                            "DIMACS ('dimacs:kissat'); overrides --solver")
    final.add_argument("--portfolio", action="store_true",
                       help="race all personalities (plus a seed-"
                            "diversified copy) on the final solve; first "
                            "validated verdict wins, losers are cancelled")
    parser.add_argument("--cube", action="store_true",
                        help="cube-and-conquer the final solve: split the "
                             "processed CNF into assumption cubes and fan "
                             "them over the worker pool (first validated "
                             "SAT wins; UNSAT only when every cube is "
                             "refuted).  Composes with --portfolio (cubes "
                             "round-robin over all personalities) and with "
                             "--backend (one backend for every cube, "
                             "including external dimacs: binaries)")
    parser.add_argument("--cube-depth", type=int, default=4,
                        help="cube split depth (up to 2**depth cubes)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="portfolio/cube worker processes (1 = sequential)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="final-solver wall-clock budget in seconds")
    # Paper parameters.
    parser.add_argument("-m", "--samplebits", type=int, default=None,
                        help="XL/ElimLin subsample parameter M")
    parser.add_argument("--dm", type=int, default=None,
                        help="XL expansion allowance deltaM")
    parser.add_argument("--xldeg", type=int, default=None,
                        help="XL multiplier degree D")
    parser.add_argument("--karn", type=int, default=None,
                        help="Karnaugh conversion limit K")
    parser.add_argument("--cutnum", type=int, default=None,
                        help="XOR cutting length L")
    parser.add_argument("--clausecut", type=int, default=None,
                        help="clause cutting length L'")
    parser.add_argument("--confl", type=int, default=None,
                        help="starting SAT conflict budget C")
    parser.add_argument("--maxconfl", type=int, default=None,
                        help="maximum SAT conflict budget")
    parser.add_argument("--maxiters", type=int, default=None,
                        help="maximum fact-learning iterations")
    parser.add_argument("--seed", type=int, default=0, help="subsampling seed")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent conversion cache directory: "
                             "minimised Karnaugh covers and whole "
                             "conversion results are reused across runs "
                             "(content-addressed, version-stamped)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record a span trace of the whole run "
                             "(preprocessing iterations, conversions, "
                             "portfolio legs, cubes) and write it to "
                             "FILE: Chrome trace_event JSON by default "
                             "(open in chrome://tracing or Perfetto), "
                             "JSON lines if FILE ends in .jsonl")
    parser.add_argument("--no-xl", action="store_true", help="disable XL")
    parser.add_argument("--no-elimlin", action="store_true", help="disable ElimLin")
    parser.add_argument("--no-sat", action="store_true", help="disable SAT learning")
    parser.add_argument("--groebner", action="store_true",
                        help="enable the Buchberger technique")
    parser.add_argument("--probe", action="store_true",
                        help="enable failed-literal probing (lookahead)")
    parser.add_argument("--stats", action="store_true",
                        help="print input/processed system statistics")
    parser.add_argument("--verb", type=int, default=1, help="verbosity (0-2)")
    return parser


def config_from_args(args: argparse.Namespace) -> Config:
    """Translate CLI flags into a :class:`Config`."""
    config = Config(seed=args.seed, cache_dir=args.cache_dir)
    overrides = {
        "xl_sample_bits": args.samplebits,
        "elimlin_sample_bits": args.samplebits,
        "xl_expand_allowance": args.dm,
        "xl_degree": args.xldeg,
        "karnaugh_limit": args.karn,
        "xor_cut_len": args.cutnum,
        "clause_cut_len": args.clausecut,
        "sat_conflict_start": args.confl,
        "sat_conflict_max": args.maxconfl,
        "max_iterations": args.maxiters,
    }
    config = config.with_(
        **{k: v for k, v in overrides.items() if v is not None}
    )
    return config.with_(
        use_xl=not args.no_xl,
        use_elimlin=not args.no_elimlin,
        use_sat=not args.no_sat,
        use_groebner=args.groebner,
        use_probing=args.probe,
    )


def _model_validator(result):
    """Final-solve SAT claims are only trusted after reconstruction
    through the conversion auxiliaries and evaluation on the processed
    ANF."""
    if result.conversion is None or not result.processed_anf:
        return None
    from .core.solution import make_model_validator

    return make_model_validator(result.conversion, result.processed_anf)


def _final_solve(args, result, tracer=NULL_TRACER):
    """Solve the processed CNF per --cube / --portfolio / --backend / --solver."""
    from .portfolio import create_backend, default_portfolio, stop_rule
    from .portfolio.engine import validated

    validate = _model_validator(result)
    if args.portfolio:
        backends = default_portfolio(seed=args.seed)
    else:
        backend = create_backend(args.backend or args.solver)
        if not backend.available():
            print("c backend unavailable: {}".format(backend.name))
            return None, None
        backends = [backend]
    if args.cube:
        from .cube import CubeConqueror

        tag = "cube"
        outcome = CubeConqueror(
            backends, jobs=args.jobs, depth=args.cube_depth,
            validate=validate, tracer=tracer,
        ).run(result.cnf, timeout_s=args.timeout)
        if args.verb >= 2:
            print("c cube: {} cubes ({} closed at split) over {}".format(
                outcome.n_cubes, outcome.n_refuted_at_split,
                "+".join(b.name for b in backends)))
    elif args.portfolio:
        from .portfolio import PortfolioRunner

        tag = "portfolio"
        outcome = PortfolioRunner(
            backends, jobs=args.jobs, validate=validate, tracer=tracer,
        ).run(result.cnf, timeout_s=args.timeout)
    else:
        with tracer.span("final.solve", backend=backend.name) as span:
            stop = stop_rule(time.monotonic() + args.timeout)
            res = validated(backend.solve(result.cnf, stop=stop), validate)
            span.set("conflicts", res.conflicts)
        if res.demoted:
            print("c model failed validation")
        return res.status, res.model
    if args.verb >= 2:
        for row in outcome.stats:
            print("c {}: #{:<4} {:<14} {:<13} {:6.2f}s conflicts={}{}".format(
                tag, row.index, row.backend, row.status, row.seconds,
                row.conflicts, "  [winner]" if row.won else ""))
        if tag == "cube" and outcome.global_unsat:
            print("c cube: refutation was global (whole-formula shortcut)")
    return outcome.verdict, outcome.model


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosphorus-py serve",
        description="run the solver-as-a-service front end: a JSON-lines "
                    "job protocol over TCP, sharded over a persistent "
                    "worker pool with a shared conversion cache",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=2919,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: CPU affinity)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent conversion cache directory "
                             "shared by all workers")
    return parser


def serve_main(argv: List[str]) -> int:
    """``bosphorus-py serve``: run the solver service until interrupted."""
    import asyncio

    from .server.app import SolverServer

    args = build_serve_parser().parse_args(argv)

    async def run() -> None:
        server = SolverServer(
            host=args.host, port=args.port,
            jobs=args.jobs, cache_dir=args.cache_dir,
        )
        await server.start()
        print("c serving on {}:{} ({} workers{})".format(
            server.host, server.port, server.pool.n_workers,
            ", cache {}".format(args.cache_dir) if args.cache_dir else "",
        ))
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("c server stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    # The CLI owns the tracer, so the final solve's portfolio legs and
    # cubes land in the same stitched trace as the preprocessing loop.
    tracer = Tracer() if args.trace else NULL_TRACER
    try:
        return _run(args, config, tracer)
    finally:
        if tracer.enabled:
            tracer.export(args.trace)


def _run(args, config, tracer) -> int:
    bosph = Bosphorus(config, tracer=tracer)

    if args.anfread:
        with open(args.anfread) as f:
            ring, polys = read_anf(f)
        if args.stats:
            from .anf.stats import describe_system
            print("c --- input ANF statistics ---")
            for line in describe_system(polys).format().splitlines():
                print("c " + line)
        result = bosph.preprocess_anf(ring, polys)
    else:
        with open(args.cnfread) as f:
            formula = read_dimacs(f)
        result = bosph.preprocess_cnf(formula)

    if args.stats and result.processed_anf:
        from .anf.stats import describe_system
        print("c --- processed ANF statistics ---")
        for line in describe_system(result.processed_anf).format().splitlines():
            print("c " + line)

    if args.verb >= 1:
        print("c bosphorus-py: {} iterations, {} learnt facts ({})".format(
            result.iterations, len(result.facts),
            ", ".join("{}={}".format(k, v)
                      for k, v in sorted(result.facts.summary().items())),
        ))

    if args.anfwrite:
        with open(args.anfwrite, "w") as f:
            write_anf(f, result.processed_anf)
    if args.cnfwrite:
        out = result.augmented_cnf if args.cnfread else result.cnf
        with open(args.cnfwrite, "w") as f:
            write_dimacs(f, out, comments=["processed by bosphorus-py"])

    if result.status == STATUS_UNSAT:
        print("s UNSATISFIABLE")
        return 20
    if args.solve:
        solution = result.solution
        if solution is None:
            verdict, model = _final_solve(args, result, tracer)
            if verdict is False:
                print("s UNSATISFIABLE")
                return 20
            if verdict is None:
                print("s UNKNOWN")
                return 0
            values = model
        else:
            values = solution.values
        print("s SATISFIABLE")
        if values is None:
            # A SAT verdict without a printable model (e.g. an external
            # backend that reports no ``v`` lines).
            return 10
        # Print the input's variables only: a CNF input's ANF ring also
        # numbers the clause-cutting auxiliaries.
        if args.cnfread:
            n = result.original_cnf.n_vars
        elif result.system:
            n = result.system.ring.n_vars
        else:
            n = len(values)
        lits = [
            "{}{}".format("" if values[v] else "-", v + 1)
            for v in range(min(n, len(values)))
        ]
        print("v {} 0".format(" ".join(lits)))
        return 10
    if result.status == STATUS_SAT:
        print("s SATISFIABLE")
        return 10
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
