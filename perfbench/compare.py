#!/usr/bin/env python3
"""Compare two perfbench run records.

    python3 perfbench/compare.py BASE.json NEW.json

Records are the files run.py writes under <build dir>/results/. Two records
are comparable only when their host stamps are identical (workload, seed,
scale, nproc, LLC size, input size and fingerprint, ISA tier, compiler and
flags, LOTUS_OBS) and both are traced or both untraced; otherwise the
comparison is refused with exit status 2. For comparable records each metric
is printed with its change; an end-to-end metric that got worse by more than
its BENCHMARK.json bound is flagged, and the exit status is then 1.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(base: dict, new: dict, spec: dict) -> int:
    if base["stamp"] != new["stamp"] or base["trace"] != new["trace"]:
        print("refusing to compare: the records' stamps differ", file=sys.stderr)
        for key in sorted(set(base["stamp"]) | set(new["stamp"])):
            if base["stamp"].get(key) != new["stamp"].get(key):
                print(f"  {key}: {base['stamp'].get(key)!r} != {new['stamp'].get(key)!r}",
                      file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse_than_bound = []
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        flag = ""
        m = bounds.get(name)
        if m is not None:
            worse = -change if m["better"] == "higher" else change
            if worse > m["bound"]:
                flag = f"  WORSE than bound {m['bound']}"
                worse_than_bound.append(name)
        print(f"{name:34s} {b['value']:>16.6g} {n['value']:>16.6g} {change:+8.2%} "
              f"{b['unit']}{flag}")
    print(f"failed ops: {base['failed']}/{base['attempted']} -> "
          f"{new['failed']}/{new['attempted']}")
    return 1 if worse_than_bound else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    return compare(base, new, spec)


if __name__ == "__main__":
    sys.exit(main())
