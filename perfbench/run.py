#!/usr/bin/env python3
"""End-to-end benchmark of `fim mine`, FIMI file in to result file out,
split layer by layer.

    python3 perfbench/run.py --workload ncbi60-ista --seed 1 --seconds 25 --trace 0

Run it from the repository root. One run:

1. builds `fim` and `perfbench-probe` (perfbench/probe) from the sources in
   this tree, into $CARGO_TARGET_DIR or .bench_build, and refuses to time
   a binary that was not built from them;
2. generates the workload's input from --seed (perfbench/spec.json);
3. fixes the reference result. For seed 1 it is the set count and FNV-1a
   committed in spec.json. For any other seed it is the output of a miner
   of another family, run once outside every timed interval;
4. runs `fim mine --in <file> --out <file>` for --seconds, one process at
   a time. Each query is timed from spawn to exit while this script waits
   in wait4. After the clock stops, its result is compared with the
   reference and deleted, and the probe times its fixed calibration work.
   The host's speed drifts by 2x and more over minutes, so e2e_s and
   setup_s scale each sample by calibration_ref_s (spec.json) over the
   mean of the calibrations on both sides of it; the raw wall time is
   cli.wall_s;
5. with --trace 0, also times parse + recode in one process (setup_s).
   With --trace 1, it alternates the timed queries with traced queries: the
   probe runs the same public calls in-process and reports one span per
   layer. The layer spans share their boundaries, so they cover the
   query's root span exactly and each layer's self time is its span's
   duration. The spans are written as a Chrome trace to .perfbench/traces/
   when the run ends;
6. prints a summary, then as its last line one JSON object with the
   metrics BENCHMARK.json lists: end_to_end for --trace 0, per_layer for
   --trace 1.

A wrong result, a failed query or traced counters that do not repeat
exactly make the run exit 1. A missing source tree, a failed build or bad
arguments exit 2. Input and result files live in .perfbench/ under the
repository root and are deleted when the run ends.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
MIB = 1 << 20
MIN_QUERIES = 5


class Usage(Exception):
    """The run cannot start: bad arguments, no sources, a failed build."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def spawn(argv, log_path):
    """Runs `argv` with stdout and stderr to `log_path`, blocked in wait4
    until it exits. Returns (wall seconds, exit code, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = time.perf_counter_ns()
    pid = os.posix_spawn(str(argv[0]), [str(a) for a in argv], os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = (time.perf_counter_ns() - t0) / 1e9
    return wall, os.waitstatus_to_exitcode(status), usage


# ---------------------------------------------------------------- build


def cargo(args, env):
    # cargo's own output goes to stderr, so stdout keeps only the report
    pid = os.posix_spawnp("cargo", ["cargo", *args], env, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
        raise Usage(f"cargo {' '.join(args)} failed")


def sources(parent):
    """The manifests and src/ trees of the packages under `parent`."""
    files = []
    for crate in sorted(p for p in parent.iterdir() if (p / "Cargo.toml").is_file()):
        files.append(crate / "Cargo.toml")
        files += sorted(p for p in (crate / "src").rglob("*") if p.is_file())
    return files


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def mtime_ns(path):
    return path.stat().st_mtime_ns if path.exists() else None


def build():
    """Builds both binaries and returns their paths.

    Each binary gets a stamp with the digest of its sources. If the sources
    changed since the stamp but cargo left the binary untouched (it trusts
    file times, which a copied tree may not keep), the release profile is
    cleaned and rebuilt, so a run never times a binary of other sources.
    """
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise Usage(f"no fim sources under {ROOT}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    release = target / "release"
    crates = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", *sources(ROOT / "crates")]
    # (manifest, extra cargo arguments, binary, the sources it is built from)
    units = [
        (ROOT / "Cargo.toml", ["-p", "fim-cli"], release / "fim", crates),
        (HERE / "probe" / "Cargo.toml", [], release / "perfbench-probe", crates + sources(HERE)),
    ]

    def build_all():
        for manifest, extra, _, _ in units:
            cargo(["build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest), *extra], env)

    before = [mtime_ns(binary) for _, _, binary, _ in units]
    build_all()
    stamps = [(binary.with_name(binary.name + ".sources"), digest(files)) for _, _, binary, files in units]
    stale = [
        binary.name
        for (_, _, binary, _), (stamp, want), old in zip(units, stamps, before)
        if (stamp.read_text() if stamp.exists() else None) != want and mtime_ns(binary) == old
    ]
    if stale:
        log(f"{', '.join(stale)} not rebuilt although the sources changed: cleaning and rebuilding")
        cargo(["clean", "--release", "--offline", "--quiet", "--manifest-path", str(ROOT / "Cargo.toml")], env)
        build_all()
    for stamp, want in stamps:
        stamp.write_text(want)
    return release / "fim", release / "perfbench-probe"


# ---------------------------------------------------------------- queries


def same_bytes(a, b):
    if a.stat().st_size != b.stat().st_size:
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(1 << 22), fb.read(1 << 22)
            if x != y:
                return False
            if not x:
                return True


class Run:
    def __init__(self, args, spec, cal_ref, fim, probe, work):
        self.args, self.spec, self.fim, self.probe, self.work = args, spec, fim, probe, work
        self.cal_ref = cal_ref
        self.cal = None  # the last calibration time
        self.input = work / "input.fimi"
        self.reference = None  # a result file already checked against the reference
        self.attempted = 0
        self.failed = 0
        self.queries = 0

    def fresh(self, suffix):
        self.queries += 1
        return self.work / f"q{self.queries}{suffix}"

    def probe_json(self, *argv):
        out = self.fresh(".json")
        _, code, _ = spawn([self.probe, *argv], out)
        text = out.read_text()
        out.unlink()
        if code != 0:
            raise Usage(f"perfbench-probe {argv[0]} failed: {text.strip()}")
        return json.loads(text.splitlines()[-1])

    def generate(self):
        seed = str(self.args.seed)
        flags = [f for k, v in self.spec["generator"].items() for f in (f"--{k}", v.replace("$seed", seed))]
        shape = self.probe_json("gen", *flags, "--out", self.input)
        log(f"input: {shape['transactions']} transactions, {shape['items']} items, "
            f"{self.input.stat().st_size / MIB:.1f} MiB")

    def fix_reference(self):
        """For seeds other than 1, mines the input once with the reference
        miner; its output is the reference every query must equal."""
        if self.args.seed == 1:
            return
        out = self.work / "reference.txt"
        _, code, _ = spawn([self.fim, "mine", *self.spec["reference"], "--in", self.input, "--out", out],
                           self.work / "reference.log")
        if code != 0:
            raise Usage(f"reference miner exited {code}: {(self.work / 'reference.log').read_text().strip()}")
        h = self.probe_json("hash", "--in", out)
        log(f"reference {' '.join(self.spec['reference'])}: {h['sets']} sets, fnv1a {h['fnv1a']}")
        self.reference = out

    def check(self, result, code, what):
        """Counts one attempted query, compares its result with the
        reference and deletes it. Returns whether it was right."""
        self.attempted += 1
        ok = code == 0 and result.exists()
        if ok and self.reference is None:
            # seed 1: the first result is checked against the committed
            # hash and then kept as the reference bytes
            want = self.spec["seed1"]
            got = self.probe_json("hash", "--in", result)
            ok = (got["sets"], got["bytes"], got["fnv1a"]) == (want["sets"], want["bytes"], want["fnv1a"])
            if ok:
                self.reference = result.rename(self.work / "reference.txt")
                return True
            log(f"{what}: got {got}, want {want}")
        elif ok:
            ok = same_bytes(result, self.reference)
            if not ok:
                log(f"{what}: result differs from the reference")
        else:
            log(f"{what}: exit code {code}")
        if not ok:
            self.failed += 1
        result.unlink(missing_ok=True)
        return ok

    def timed_query(self):
        out = self.fresh(".txt")
        wall, code, ru = spawn([self.fim, "mine", *self.spec["fim_mine"], "--in", self.input, "--out", out],
                               self.work / "fim.log")
        if not self.check(out, code, "fim mine"):
            log((self.work / "fim.log").read_text().strip())
            return None
        # the calibrations on both sides of the query
        before, self.cal = self.cal, self.probe_json("calibrate")["calibration_s"]
        cal = (before + self.cal) / 2
        cpu = ru.ru_utime + ru.ru_stime
        return {"wall": wall, "cal": cal, "scaled": wall * self.cal_ref / cal, "cpu": cpu,
                "rss_mb": ru.ru_maxrss / 1024, "minflt": ru.ru_minflt, "nivcsw": ru.ru_nivcsw}

    def traced_query(self):
        """One traced query with its layer self times, or None when it
        failed its result check."""
        out = self.fresh(".txt")
        log_path = self.work / "probe.log"
        _, code, _ = spawn([self.probe, "trace", *self.spec["fim_mine"], "--in", self.input, "--out", out],
                           log_path)
        text = log_path.read_text()
        if not self.check(out, code, "traced query"):
            log(text.strip())
            return None
        t = json.loads(text.splitlines()[-1])
        t["self_s"], t["root_s"] = self_times(t["spans"])
        return t


# ---------------------------------------------------------------- trace


def self_times(spans):
    """One query's layer self times, {name: seconds}, and its root span's
    seconds. The probe's layer spans share their boundaries and cover the
    root span, so a layer's self time is its span's duration."""
    root = next(s for s in spans if s["parent"] is None)
    return ({s["name"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s is not root},
            (root["end_ns"] - root["start_ns"]) / 1e9)


def write_chrome_trace(path, traced):
    """The spans of every traced query as Chrome trace_event JSON (the
    format `fim mine --trace-events` writes), one track per query."""
    events = []
    for q, t in enumerate(traced):
        for s in t["spans"]:
            events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": q + 1,
                           "ts": s["start_ns"] / 1000, "dur": (s["end_ns"] - s["start_ns"]) / 1000,
                           "args": {"parent": s["parent"]}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}) + "\n")


# ---------------------------------------------------------------- metrics


def tail(xs):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None below eleven samples."""
    xs = sorted(xs)
    k = len(xs) - 10
    return (100 * k / len(xs), xs[k - 1]) if k >= 1 else None


def ratio(a, b):
    return a / b if b else 0.0


FAMILIES = {
    "ista": ["seg_scans", "isect_early_exits", "splits", "node_allocs", "peak_nodes", "prune_passes",
             "compactions"],
    "carpenter": ["search_steps", "repo_lookups", "absorption_hits", "eliminations", "tid_early_stops"],
    "eclat": ["search_steps", "tid_intersections", "perfect_extensions", "words_anded", "popcount_calls"],
}


def layer_metrics(timed, traced):
    """Per-layer metrics from the timed processes' rusage and the traced
    queries' spans and counters."""
    m = {
        "cli.wall_s": median([q["wall"] for q in timed]),
        "host.calibration_s": median([q["cal"] for q in timed]),
        "cli.cpu_s": median([q["cpu"] for q in timed]),
        "cli.wait_s": median([q["wall"] - q["cpu"] for q in timed]),
        "cli.minor_faults": median([q["minflt"] for q in timed]),
        "cli.invol_switches": median([q["nivcsw"] for q in timed]),
        "cli.glue_s": median([q["wall"] for q in timed]) - median([t["root_s"] for t in traced]),
    }
    for span, name in [("io.parse", "io.parse_s"), ("core.recode", "core.recode_s"), ("miner.mine", "miner.mine_s"),
                       ("core.report", "core.report_s"), ("io.write", "io.write_s"),
                       ("core.teardown", "core.teardown_s")]:
        m[name] = median([t["self_s"][span] for t in traced])
    first = traced[0]
    m["io.input_mb"] = first["input_bytes"] / MIB
    m["io.output_mb"] = first["output_bytes"] / MIB
    m["io.parse_mb_per_s"] = ratio(m["io.input_mb"], m["io.parse_s"])
    m["io.write_mb_per_s"] = ratio(m["io.output_mb"], m["io.write_s"])
    m["core.items_kept"] = first["items_kept"]
    m["core.transactions_kept"] = first["transactions_kept"]
    m["core.sets"] = first["sets"]
    for family, names in FAMILIES.items():
        c = first["counters"] if first["family"] == family else {}
        for n in names:
            m[f"{family}.{n}"] = c.get(n, 0)
    m["ista.early_exit_ratio"] = ratio(m["ista.isect_early_exits"], m["ista.seg_scans"])
    c = first["counters"] if first["family"] == "carpenter" else {}
    m["carpenter.repo_hit_ratio"] = ratio(c.get("repo_hits", 0), c.get("repo_lookups", 0))
    m["carpenter.early_stop_ratio"] = ratio(m["carpenter.tid_early_stops"], m["carpenter.search_steps"])
    return m


def summarize(timed, traced, setup):
    for key, what in [("scaled", "e2e_s (scaled to the reference host speed)"), ("wall", "wall")]:
        xs = [q[key] for q in timed]
        line = f"{what}: median {median(xs):.4f} s over {len(xs)} fim mine queries"
        t = tail(xs)
        print(line + (f", p{t[0]:.0f} {t[1]:.4f} s" if t else ""))
    print(f"calibration: median {median([q['cal'] for q in timed]):.4f} s")
    if setup:
        print(f"setup_s (scaled): median {median(setup):.6f} s over {len(setup)} batches of parse + recode")
    if traced:
        root = median([t["root_s"] for t in traced])
        print(f"traced query: median {root:.4f} s over {len(traced)} queries; layer self time:")
        for span in traced[0]["self_s"]:
            s = median([t["self_s"][span] for t in traced])
            print(f"  {span:<14} {s:10.6f} s  {100 * s / root:5.1f}%")


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        raise Usage(f"unknown workload '{args.workload}' (one of {', '.join(spec['workloads'])})")
    section = "per_layer" if args.trace else "end_to_end"
    undocumented = [m["name"] for m in bench[section] if m["name"] not in spec["metrics"]]
    if undocumented:
        raise Usage(f"metrics missing from perfbench/spec.json: {', '.join(undocumented)}")

    fim, probe = build()
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args, spec["workloads"][args.workload], spec["calibration_ref_s"], fim, probe, work)
    try:
        values = measure(run, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        values["ok_ratio"] = (run.attempted - run.failed) / run.attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]
               if m["name"] in values}
    print(json.dumps({"correct": not run.failed, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 1 if run.failed else 0


def measure(run, args):
    """Runs the timed (and with --trace 1 the traced) queries for
    --seconds and returns the metric values. Stops at the first failure
    and then returns no values: a run with a wrong result reports no
    timing."""
    run.generate()
    run.fix_reference()
    timed, traced, setup = [], [], []
    counters = None
    # warm-up: loads the binaries and fills the page cache; checked, not
    # timed
    run.cal = run.probe_json("calibrate")["calibration_s"]
    run.timed_query()
    if args.trace:
        run.traced_query()
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(timed) < MIN_QUERIES) and not run.failed:
        q = run.timed_query()
        if q:
            timed.append(q)
        if not args.trace:
            continue
        t = run.traced_query()
        if t is None:
            continue
        # the counters are deterministic: every query of one input must
        # repeat them exactly
        key = (t["family"], t["sets"], t["counters"])
        if counters is not None and key != counters:
            run.failed += 1
            log(f"trace self-check: counters {key} differ from {counters}")
            continue
        counters = key
        traced.append(t)
    if run.failed:
        return {}
    if args.trace:
        write_chrome_trace(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", traced)
        values = layer_metrics(timed, traced)
    else:
        reps = run.probe_json("setup", "--in", run.input, "--supp", supp_of(run.spec))
        cal = reps["calibration_s"]
        setup = [s * run.cal_ref * 2 / (c0 + c1) for s, c0, c1 in zip(reps["setup_s"], cal, cal[1:])]
        values = {
            "e2e_s": median([q["scaled"] for q in timed]),
            "setup_s": median(setup),
            "peak_rss_mb": median([q["rss_mb"] for q in timed]),
        }
    summarize(timed, traced, setup)
    return values


def supp_of(query):
    return query["fim_mine"][query["fim_mine"].index("--supp") + 1]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Usage as e:
        log(str(e))
        sys.exit(2)
