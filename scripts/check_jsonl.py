#!/usr/bin/env python3
"""Fail unless every line of every given file is one valid JSON value.

Lines are parsed from the raw bytes, so a report that copied a non-UTF-8
config byte into its output fails here instead of in a downstream
pipeline:

    python3 scripts/check_jsonl.py fleet.jsonl sets.jsonl
"""
import json
import sys


def main(paths):
    bad = 0
    for path in paths:
        with open(path, "rb") as stream:
            for number, line in enumerate(stream, 1):
                try:
                    json.loads(line)
                except ValueError as error:
                    print(f"{path}:{number}: not JSON: {error}", file=sys.stderr)
                    bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
