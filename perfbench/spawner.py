"""Starts the cli workload's `python -m boxball` processes; started by ops.Spawner.

The peak resident memory the kernel reports for a child counts the memory
of the process that started it, up to the child's exec.  The worker holds
the workload's inputs, captured outputs and checks, so every process it
started would report at least the worker's size.  This process holds next
to nothing.  It reads one JSON request per line, {"argv": [...],
"timeout": seconds}, runs the command with stdout and stderr captured,
and answers with one JSON line {"code", "out", "err"} (exit code, byte
counts) followed by the bytes of stdout and of stderr.  At the end of its
input it prints {"maxrss_kib": ...}, the largest peak resident memory of
the processes it ran, and exits.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    reply = sys.stdout.buffer
    for line in sys.stdin.buffer:
        req = json.loads(line)
        try:
            proc = subprocess.run(req["argv"], capture_output=True, timeout=req["timeout"])
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = -9, exc.stdout or b"", (exc.stderr or b"") + b"\ntimed out"
        reply.write(json.dumps({"code": code, "out": len(out), "err": len(err)}).encode())
        reply.write(b"\n" + out + err)
        reply.flush()
    maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    reply.write(json.dumps({"maxrss_kib": maxrss}).encode() + b"\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
