#!/usr/bin/env python3
"""Write a deterministic benchmark corpus of .gr instances.

Instances are connected with treewidth <= 3 and vertex cover <= 5, the range
every solver here handles comfortably; pair with ``sdgsolve bench``.
"""

import argparse
from pathlib import Path

from sdgsolve.formats import write_gr
from sdgsolve.generators import random_solver_corpus_instance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="corpus")
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        G = random_solver_corpus_instance(args.seed + i)
        path = out / f"inst_{args.seed + i:03d}_n{G.n}.gr"
        path.write_text(write_gr(G))
    print(f"wrote {args.count} instances to {out}/")


if __name__ == "__main__":
    main()
