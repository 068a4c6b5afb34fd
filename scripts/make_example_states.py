#!/usr/bin/env python3
"""Write a few example .qstate.json files for trying out the CLI.

usage: python scripts/make_example_states.py [OUT_DIR]   (default: examples/)
"""

import argparse
import pathlib

import numpy as np

import bellgamma as bg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write five example .qstate.json files.")
    parser.add_argument("out_dir", metavar="OUT_DIR", type=pathlib.Path, nargs="?",
                        default=pathlib.Path("examples"),
                        help="directory to write into (default: examples/)")
    out_dir = parser.parse_args(argv).out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    dims = bg.BipartiteDims(2, 3)

    amp = np.zeros((2, 3), dtype=complex)
    amp[0, 0] = amp[1, 1] = 1 / np.sqrt(2)
    bg.save_state(out_dir / "bell_2x3.qstate.json", bg.PureState(dims, amp))

    bg.save_state(out_dir / "product_2x3.qstate.json", bg.max_entangled(1, dims))
    bg.save_state(out_dir / "random_2x3.qstate.json", bg.random_pure(dims, 2024))
    bg.save_state(out_dir / "mixed_2x3.qstate.json", bg.random_density(dims, 2024))
    bg.save_state(
        out_dir / "max_entangled_3x3.qstate.json",
        bg.max_entangled(3, bg.BipartiteDims(3, 3)),
    )

    for path in sorted(out_dir.glob("*.qstate.json")):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
