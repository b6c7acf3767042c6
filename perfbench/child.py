"""Fresh-interpreter probes started by run.py, one at a time.

    python3 perfbench/child.py setup run|sweep CONFIG
        import offloadsim.cli and parse the workload's config, then exit;
        the parent times the whole process.
    python3 perfbench/child.py rss CLI-ARGS...
        run the workload once through offloadsim.cli.main and print
        {"rc": ..., "maxrss_kb": ...} as JSON. The peak is this process's
        VmHWM, which starts afresh at exec; getrusage's ru_maxrss would also
        count the parent's memory copied at fork.

The parent puts the checkout's src/ on PYTHONPATH.
"""

import json
import resource
import sys


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    mode = argv[0]
    import offloadsim.cli as cli

    if mode == "setup":
        command, config = argv[1], argv[2]
        with open(config) as fh:
            text = fh.read()
        parse = cli.parse_run_config if command == "run" else cli.parse_sweep_spec
        parse(text)
        return 0
    if mode == "rss":
        rc = cli.main(argv[1:])
        print(json.dumps({"rc": rc, "maxrss_kb": peak_rss_kb()}))
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
