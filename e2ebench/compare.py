#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 e2ebench/compare.py OLD NEW
    python3 e2ebench/compare.py --self-test [--runs N] [--seconds S]

OLD and NEW are files (or directories of files) holding the standard
output of benchmark runs: each run prints a `{"record": ...}` line and then
its result line. For every workload and end-to-end metric in
BENCHMARK.json the command prints each set's median and quartiles and a
verdict:

  worse       the new median is worse than the old by more than the
              metric's bound, and by more than the old runs' own spread
  better      the new median is better by more than the old spread and
              every new run beats the old median
  same        the medians differ by no more than the bound
  unresolved  the old runs spread wider than the bound, so a change within
              that spread cannot be told from noise

It exits 1 when any verdict is `worse`.

`--self-test` runs the `sim` workload three times over, interleaved run by
run so that drift in the machine's speed falls on all three alike: two
sets of the same code, and one set with a slowdown planted in the
benchmark's own node wrapper: `--plant-slowdown 0.5` follows each
`on_message` call with busy time equal to half its own duration. Those
calls are nearly all of `sim`'s time, so deliveries per second fall by
about 33%, past its 0.25 bound with room for the noise of a five-run
median. (A 20% fall is within the 0.25 bound, which a metric is allowed
to move by, so it cannot be flagged; the bounds cannot be tighter, since
`sim`'s speed moves by 10-20% between minutes on a shared 2-core
machine.) The program is untouched. The self-test passes when the same-code sets compare with no
`worse` or `better` verdict on any metric and the planted set is flagged
`worse` on `deliveries_per_s`.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Planted busy time per on_message, as a share of the call (see above).
PLANT = "0.5"
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def read_runs(path):
    """{workload: [metrics dict, ...]} from run output files."""
    files = []
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path))
    else:
        files = [path]
    runs = {}
    for name in files:
        workload = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "record" in obj:
                    workload = obj["record"]["workload"]
                elif "metrics" in obj and workload is not None:
                    values = {k: v["value"] for k, v in obj["metrics"].items()}
                    runs.setdefault(workload, []).append(values)
                    workload = None
    return runs


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return q1, med, q3


def verdict(old, new, bound, better):
    q1, med_old, q3 = summary(old)
    _, med_new, _ = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    # Positive `change` means the new set is worse.
    change = sign * (med_new - med_old) / abs(med_old) if med_old else 0.0
    spread = (q3 - q1) / abs(med_old) if med_old else 0.0
    if change > bound and change > spread:
        return "worse", change, spread
    beats = all(sign * (v - med_old) < 0 for v in new)
    if -change > spread and beats and -change > 0:
        return "better", change, spread
    if spread > bound:
        return "unresolved", change, spread
    if abs(change) <= bound:
        return "same", change, spread
    return "unresolved", change, spread


def compare(old_runs, new_runs, bench, out=sys.stdout):
    verdicts = {}
    header = f"{'workload':8} {'metric':24} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict"
    print(header, file=out)
    for workload in sorted(set(old_runs) & set(new_runs)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            old = [r[name] for r in old_runs[workload] if name in r]
            new = [r[name] for r in new_runs[workload] if name in r]
            if not old or not new:
                continue
            v, change, _ = verdict(old, new, metric["bound"], metric["better"])
            verdicts[(workload, name)] = v
            fmt = lambda vals: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*summary(vals))
            print(
                f"{workload:8} {name:24} {fmt(old):>34} {fmt(new):>34} {change:+8.3f} {metric['bound']:6.2f}  {v}",
                file=out,
            )
    return verdicts


def run_sets(bench, workload, seconds, sets):
    """Run `sets` ({path: (seeds, extra args)}) interleaved, one run of
    each set in turn, so that drift in the machine's speed falls on every
    set alike."""
    files = {path: open(path, "w") for path in sets}
    rounds = zip(*(list(seeds) for seeds, _ in sets.values()))
    for seeds in rounds:
        for (path, (_, extra)), seed in zip(sets.items(), seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ] + extra
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"run failed ({' '.join(cmd)}):\n{proc.stderr[-2000:]}")
            files[path].write(proc.stdout)
            files[path].flush()
            print(f"  {workload} seed {seed} {' '.join(extra)}: done", flush=True)
    for f in files.values():
        f.close()


def self_test(runs, seconds):
    bench = load_benchmark()
    out_dir = os.path.join(ROOT, ".bench_selftest")
    os.makedirs(out_dir, exist_ok=True)
    a, b, c = (os.path.join(out_dir, n) for n in ("same_a.jsonl", "same_b.jsonl", "planted.jsonl"))
    run_sets(bench, "sim", seconds, {
        a: (range(1, runs + 1), []),
        b: (range(runs + 1, 2 * runs + 1), []),
        c: (range(2 * runs + 1, 3 * runs + 1), ["--plant-slowdown", PLANT]),
    })
    print("\nsame code, two sets:")
    same = compare(read_runs(a), read_runs(b), bench)
    print(f"\nsame code vs planted slowdown ({PLANT} of each on_message) in the wrapper:")
    planted = compare(read_runs(a), read_runs(c), bench)
    noisy = {k: v for k, v in same.items() if v in ("worse", "better")}
    missed = [m for m in ("deliveries_per_s",)
              if planted.get(("sim", m)) != "worse"]
    ok = not noisy and not missed
    print(f"\nself-test: {'PASS' if ok else 'FAIL'}"
          + (f"; same-code verdicts {noisy}" if noisy else "")
          + (f"; planted slowdown not flagged on {missed}" if missed else ""))
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] == "--self-test":
        opts = dict(zip(argv[1::2], argv[2::2]))
        bench = load_benchmark()
        runs = int(opts.get("--runs", 5))
        seconds = int(opts.get("--seconds", bench["run_seconds"]))
        return self_test(runs, seconds)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    verdicts = compare(read_runs(argv[0]), read_runs(argv[1]), load_benchmark())
    return 1 if "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
