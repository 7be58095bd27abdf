"""Regenerate the committed class lists from a full census.

    python3 benchmarks/make_inputs.py           # rewrite inputs/*.txt
    python3 benchmarks/make_inputs.py --check   # exit 1 if they differ

`inputs/manifold_classes.txt` holds the class id (gluing text) of each of the
56 manifold classes and `inputs/nonorientable_classes.txt` the 27
non-orientable ones, in census order, one per line.
"""

from __future__ import annotations

import argparse
import sys

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)
from cubecensus.census import run_census
from workloads import MANIFOLD_CLASSES, NONORIENTABLE_CLASSES, read_class_list


def generate() -> dict:
    """Class lists by file, from `run_census(False)`."""
    manifolds = [r for r in run_census(False).rows if r.manifold]
    return {
        MANIFOLD_CLASSES: [r.class_id for r in manifolds],
        NONORIENTABLE_CLASSES: [r.class_id for r in manifolds if not r.orientable],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed lists instead of writing them")
    args = parser.parse_args(argv)
    differ = []
    for path, ids in generate().items():
        if args.check:
            if read_class_list(path) != ids:
                differ.append(path.name)
        else:
            path.write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")
            print(f"wrote {len(ids)} classes to {path.name}")
    if differ:
        print(f"regenerated lists differ from the committed ones: {', '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
