"""Command-line front end.

Exit codes: 0 = success / isomorphic, 1 = not isomorphic (or validation
issues found), 2 = invalid input.  Primary results go to stdout, diagnostics
to stderr, and output is byte-identical across runs on identical input.

Words on the command line are comma- or whitespace-separated letter names
(letters may be multi-character, e.g. ``a^-1``); witnesses are printed
space-separated so they can be piped straight back into ``reroot --word``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import compression, jsonio
from .automata import MNfa, PDfa, as_pdfa, trim, validate_mnfa, validate_pdfa
from .errors import CFTreeError, SchemaError, UsageError
from .isomorphism import iso_nonrooted, iso_rooted
from .reductions import reduce_gap2_to_rooted_iso, reduce_rooted_to_nonrooted
from .rerooting import reroot_along_word
from .unfolding import export_dot, unfold_mnfa, unfold_pdfa

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2


def _read_doc(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    return jsonio.loads(text)


def _write_doc(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e}") from e


def _load_automaton(path: str, *, strict: bool = True):
    return jsonio.automaton_from_doc(_read_doc(path), strict=strict)


def _parse_word(text: str) -> tuple[str, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(p for p in parts if p)


def _pick_state(cli_state: str | None, doc_root: str | None, path: str) -> str:
    if cli_state is not None:
        return cli_state
    if doc_root is not None:
        return doc_root
    raise SchemaError(f"{path} has no root and no --state was given")


def _cmd_validate(args) -> int:
    aut, _ = _load_automaton(args.file, strict=False)
    report = validate_mnfa(aut) if isinstance(aut, MNfa) else validate_pdfa(aut)
    for issue in report.issues:
        print(f"{issue.code}: {issue.detail}")
    print("ok" if report.ok else f"{len(report.issues)} issue(s)")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_unfold(args) -> int:
    aut, root = _load_automaton(args.file)
    state = _pick_state(args.state, root, args.file)
    if isinstance(aut, MNfa):
        tree = unfold_mnfa(aut, state, args.radius)
    else:
        tree = unfold_pdfa(aut, state, args.radius)
    if args.dot:
        sys.stdout.write(export_dot(tree))
    else:
        sys.stdout.write(jsonio.tree_to_json(tree))
    return EXIT_OK


def _as_pdfa_input(aut, path: str) -> PDfa:
    if isinstance(aut, PDfa):
        return aut
    try:
        return as_pdfa(aut)
    except CFTreeError as e:
        raise SchemaError(f"{path} is not deterministic: {e}") from e


def _cmd_iso(args) -> int:
    states = args.state or []
    if len(states) not in (0, 2):
        raise UsageError("--state must be given for both automata (or for neither)")
    aut_a, root_a = _load_automaton(args.file_a)
    aut_b, root_b = _load_automaton(args.file_b)
    state_a = _pick_state(states[0] if states else None, root_a, args.file_a)
    state_b = _pick_state(states[1] if states else None, root_b, args.file_b)
    a = _as_pdfa_input(aut_a, args.file_a)
    b = _as_pdfa_input(aut_b, args.file_b)
    if args.unrooted:
        ok, witness = iso_nonrooted(a, state_a, b, state_b)
        print("isomorphic (non-rooted)" if ok else "not isomorphic (non-rooted)", file=sys.stderr)
        if args.witness and ok and witness is not None:
            print(str(witness))
    else:
        ok, witness = iso_rooted(a, state_a, b, state_b)
        print("isomorphic (rooted)" if ok else "not isomorphic (rooted)", file=sys.stderr)
        if args.witness and not ok and witness is not None:
            print(str(witness))
            side = args.file_a if witness.side == "left" else args.file_b
            print(f"readable only from {side}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_reroot(args) -> int:
    aut, root = _load_automaton(args.file)
    state = _pick_state(args.state, root, args.file)
    d = _as_pdfa_input(aut, args.file)
    word = _parse_word(args.word)
    out, new_root = reroot_along_word(d, state, word)
    sys.stdout.write(jsonio.automaton_to_json(out, root=new_root))
    return EXIT_OK


def _cmd_reduce_2gap(args) -> int:
    g = jsonio.gap2_from_doc(_read_doc(args.gapfile))
    try:
        a, root_a, b, root_b = reduce_gap2_to_rooted_iso(g)
    except ValueError as e:
        raise SchemaError(str(e)) from e
    _write_doc(args.out_a, jsonio.automaton_to_json(a, root=root_a))
    _write_doc(args.out_b, jsonio.automaton_to_json(b, root=root_b))
    print(f"wrote {args.out_a} and {args.out_b}", file=sys.stderr)
    return EXIT_OK


def _cmd_lift_nonrooted(args) -> int:
    aut_a, root_a = _load_automaton(args.file_a)
    aut_b, root_b = _load_automaton(args.file_b)
    state_a = _pick_state(args.state_a, root_a, args.file_a)
    state_b = _pick_state(args.state_b, root_b, args.file_b)
    a = _as_pdfa_input(aut_a, args.file_a)
    b = _as_pdfa_input(aut_b, args.file_b)
    a2, p2, b2, q2 = reduce_rooted_to_nonrooted(a, state_a, b, state_b)
    _write_doc(args.out_a, jsonio.automaton_to_json(a2, root=p2))
    _write_doc(args.out_b, jsonio.automaton_to_json(b2, root=q2))
    print(f"wrote {args.out_a} and {args.out_b}", file=sys.stderr)
    return EXIT_OK


def _cmd_compress(args) -> int:
    tree = jsonio.tree_from_doc(_read_doc(args.treefile))
    d, root = compression.compress_finite_tree(tree)
    sys.stdout.write(jsonio.automaton_to_json(d, root=root))
    return EXIT_OK


def _cmd_minimize(args) -> int:
    aut, root = _load_automaton(args.file)
    d = _as_pdfa_input(aut, args.file)
    if args.trim and root is None:
        raise SchemaError(f"{args.file} has no root and --trim needs one")
    out, rep = compression.quotient(d)
    new_root = rep[root] if root is not None else None
    if args.trim:
        out = trim(out, new_root)
    sys.stdout.write(jsonio.automaton_to_json(out, root=new_root))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises on bad arguments instead of exiting."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cftree",
        description="Finite-automaton encodings of context-free trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report problems in an automaton document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("unfold", help="materialize a disc of the generated tree")
    p.add_argument("file")
    p.add_argument("--state", help="state to unfold from (default: document root)")
    p.add_argument("--radius", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT text")
    fmt.add_argument("--json", action="store_true", help="emit tree JSON (default)")
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("iso", help="decide isomorphism of two generated trees")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--state", action="append", help="designated state (give once per file)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--rooted", action="store_true", help="rooted isomorphism (default)")
    mode.add_argument("--unrooted", action="store_true", help="non-rooted isomorphism")
    p.add_argument("--witness", action="store_true", help="print the witness word on stdout")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("reroot", help="move the designated state along a word")
    p.add_argument("file")
    p.add_argument("--state", help="state to start from (default: document root)")
    p.add_argument("--word", required=True, help="comma- or space-separated letters")
    p.set_defaults(func=_cmd_reroot)

    p = sub.add_parser("reduce-2gap", help="encode a reachability instance as a rooted-isomorphism instance")
    p.add_argument("gapfile")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.set_defaults(func=_cmd_reduce_2gap)

    p = sub.add_parser("lift-nonrooted", help="lift a rooted instance to a non-rooted one")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--state-a", help="designated state in the first automaton")
    p.add_argument("--state-b", help="designated state in the second automaton")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.set_defaults(func=_cmd_lift_nonrooted)

    p = sub.add_parser("compress", help="compress a finite tree document into a pDFA")
    p.add_argument("treefile")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("minimize", help="quotient a pDFA by state equivalence")
    p.add_argument("file")
    p.add_argument("--trim", action="store_true", help="also drop states unreachable from the root")
    p.set_defaults(func=_cmd_minimize)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CFTreeError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as e:
        print(f"error[BAD_VALUE]: {e}", file=sys.stderr)
        return EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    # Documents are UTF-8, so output is too, whatever the locale's encoding;
    # ``run`` leaves the streams of in-process callers alone.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
