"""Command-line front end.

Exit codes: 0 success, 1 malformed input or usage error (parse diagnostics
carry line numbers) or a closed stdout, 2 verification or self-test failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .blocks import BlockKind, block_valences
from .census import (
    classify,
    render_records,
    render_text,
    render_verification,
    run_census,
    verify_theorem,
)
from .cube_complex import GluingSpecError, parse_gluing_text
from .enumeration import enumerate_canonical

EXPECTED_VALENCES = {
    BlockKind.FLIPPED: (4, (1, 3, 3, 3, 3, 3)),
    BlockKind.FIVE_VALENT: (5, (2, 2, 2, 2, 3, 3)),
    BlockKind.FOUR_VALENT: (4, (2, 2, 3, 3, 3, 3)),
    BlockKind.FIVE_TETRAHEDRON: (None, (3, 3, 3, 3, 3, 3)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubecensus",
                     description="census of closed 3-manifolds glued from one cube")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--opposite-only": dict(action="store_true",
                                help="restrict to gluings pairing opposite faces"),
        "--format": dict(choices=("text", "records"), default="text",
                         help="human-readable text or one JSON record per line"),
        "--input": dict(metavar="PATH", required=True,
                        help="gluing-spec file, one `<faceA> <faceB> r<k>[m]` per line"),
    }
    # each command declares exactly the options its handler reads
    for name, help_text, flags in (
        ("enumerate", "list canonical gluing classes", ("--opposite-only", "--format")),
        ("classify", "classify one gluing from a file", ("--format", "--input")),
        ("census", "classify every canonical class", ("--opposite-only", "--format")),
        ("verify", "run the full census and verify the classification", ()),
        ("blocks-selftest", "check block valence tables", ()),
    ):
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            command.add_argument(flag, **options[flag])
    return parser


def _cmd_enumerate(args) -> int:
    classes = enumerate_canonical(args.opposite_only)
    for c in classes:
        if args.format == "records":
            print(json.dumps({"record": "class", "classId": c.class_id,
                              "orbitSize": c.orbit_size}, sort_keys=True))
        else:
            print(f"{c.class_id} | orbit {c.orbit_size}")
    if args.format == "text":
        print(f"total: {len(classes)} classes")
    return 0


def _cmd_classify(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as handle:
            gluing = parse_gluing_text(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    except GluingSpecError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 1
    row = classify(gluing)
    if args.format == "records":
        payload = {"record": "class"}
        payload.update(row.record())
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in row.record().items():
            print(f"{key}: {value}")
    return 0


def _cmd_census(args) -> int:
    report = run_census(args.opposite_only)
    renderer = render_records if args.format == "records" else render_text
    sys.stdout.write(renderer(report))
    return 0


def _cmd_verify(args) -> int:
    report = run_census(False)
    result = verify_theorem(report)
    sys.stdout.write(render_verification(result))
    return 0 if result.passed else 2


def _cmd_blocks_selftest(_args) -> int:
    failed = False
    print("block valences (internal edge, sorted diagonal valences):")
    for kind, expected in EXPECTED_VALENCES.items():
        actual = block_valences(kind)
        ok = actual == expected
        failed = failed or not ok
        print(f"  [{'PASS' if ok else 'FAIL'}] {kind.value}: "
              f"computed {actual}, expected {expected}")
    return 2 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "classify": _cmd_classify,
        "census": _cmd_census,
        "verify": _cmd_verify,
        "blocks-selftest": _cmd_blocks_selftest,
    }
    return handlers[args.command](args)


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`cubecensus enumerate | head -1`); send the
        # rest of the output to devnull so the interpreter's last flush
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
