"""One benchmark sample, run in a fresh process by run.py.

Times the set-up a user pays on every run (importing voxbench, generating
the seeded corpus, loading its manifest), then one ``voxbench bench`` call
through ``voxbench.cli.main``, and prints one JSON line with the timings and
the process's peak resident memory. With ``trace`` set in the spec it also
records spans around the layer boundaries and derives the per-layer metrics.

Usage: python3 perfbench/sample.py '<json spec>'   (see run.py)
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import spans


def versions(voxbench) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "voxbench": voxbench.__version__,
    }


def main(spec: dict) -> dict:
    work = Path(spec["work_dir"])
    t0 = time.perf_counter()
    import voxbench
    from voxbench import cli
    from voxbench.bench import generate_synthetic_corpus, load_manifest

    corpus = spec["corpus"]
    generate_synthetic_corpus(
        n_speakers=corpus["speakers"],
        samples_each=corpus["recordings"],
        seconds=corpus["seconds"],
        seed=spec["corpus_seed"],
        out_dir=work / "corpus",
    )
    load_manifest(work / "corpus" / "manifest.csv")
    setup_s = time.perf_counter() - t0
    src = Path(spec["src_dir"]).resolve()
    if src not in Path(voxbench.__file__).resolve().parents:
        raise RuntimeError(f"voxbench imported from {voxbench.__file__}, not from {src}")
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    result: dict = {"setup_s": setup_s}

    argv = [
        "bench",
        "--manifest", str(work / "corpus" / "manifest.csv"),
        "--out", spec["out_dir"],
        "--seed", str(spec["master_seed"]),
        "--jobs", str(spec["jobs"]),
        "--max-frames-per-file", str(spec["max_frames_per_file"]),
    ]
    if spec.get("grid") is not None:
        grid_path = work / "grid.json"
        grid_path.write_text(json.dumps(spec["grid"]))
        argv += ["--grid", str(grid_path)]

    cli_out = io.StringIO()
    if spec["trace"]:
        tracer = spans.Tracer(run_id=spec["run_id"])
        spans.install(tracer)
        with contextlib.redirect_stdout(cli_out):
            rc = tracer.call("bench", cli.main, (argv,), {})
        root = next(s for s in tracer.spans if s["id"] == tracer.root_id)
        result["sweep_s"] = root["end"] - root["start"]
        spans.check_boundaries(tracer, spec["reducers"])
        tracer.write(spec["trace_out"])
        result["layers"] = spans.layer_metrics(tracer.spans, root)
        result["self_s"] = spans.self_times(tracer.spans)
        result["counts"] = spans.exact_counts(tracer.spans)
    else:
        start = time.perf_counter()
        with contextlib.redirect_stdout(cli_out):
            rc = cli.main(argv)
        result["sweep_s"] = time.perf_counter() - start
    result["versions"] = versions(voxbench)
    result["exit_code"] = rc
    result["cli_stdout"] = cli_out.getvalue()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux reports KiB
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
