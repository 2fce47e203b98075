"""Record the SHA-256 of every report of every workload at the default seed.

    python3 bench/record_digests.py

Rewrites bench/digests.json, which run.py compares reports against.  Reports
are meant to stay byte-identical, so rerun it only for a change that alters
them on purpose.  A report that fails its own checks is never recorded.
"""

from __future__ import annotations

import json

from run import DIGESTS, digest, import_cli, problem, run_job


def main() -> None:
    cli = import_cli()
    import workloads

    recorded = {}
    for make_jobs, warmup in workloads.WORKLOADS.values():
        for job in [warmup, *make_jobs(workloads.DEFAULT_SEED)]:
            outcome = run_job(cli, job)
            p = problem(job, outcome, {})
            if p:
                raise SystemExit(f"{job.name}: {p}")
            recorded[job.name] = digest(outcome.text)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS}")


if __name__ == "__main__":
    main()
