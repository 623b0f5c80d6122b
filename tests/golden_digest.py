"""Check a file's bytes against a digest recorded in ``test_golden.GOLDEN``.

    python tests/golden_digest.py KEY PATH

exits 0 when the sha256 of the file at PATH is ``GOLDEN[KEY]``, and 1,
naming both digests, when it is not.
"""

import hashlib
import sys

from test_golden import GOLDEN


def main(key: str, path: str) -> int:
    with open(path, "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()
    if got != GOLDEN[key]:
        print(f"{path}: sha256 {got}, golden {key!r} is {GOLDEN[key]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
