"""One cold start: a fresh interpreter imports the program and runs one operation.

Usage (from run.py): python3 coldstart.py <src dir> <workload>, with the
operation's JSON spec on stdin.  Prints one JSON line of this process's
CPU time (``time.process_time``) at four points: ``start`` when this
script begins (the interpreter's own start-up), ``read`` after the spec is
read, ``imported`` after ``import convex_enclose`` (plus
``convex_enclose.cli`` for cli_mix), ``done`` after the operation returned.
"""

import time

_START = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    src, workload = sys.argv[1], sys.argv[2]
    spec = json.loads(sys.stdin.read())
    read = time.process_time()
    sys.path.insert(0, src)
    import convex_enclose  # noqa: F401

    with_cli = workload == "cli_mix"
    if with_cli:
        import convex_enclose.cli  # noqa: F401
    imported = time.process_time()

    from workloads import load_program, run_op

    run_op(load_program(with_cli), spec)
    done = time.process_time()
    print(json.dumps({"start": _START, "read": read, "imported": imported, "done": done}))


if __name__ == "__main__":
    main()
