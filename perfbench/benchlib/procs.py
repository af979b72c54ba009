"""Launching, timing and stopping the programs under test."""

import json
import os
import signal
import socket
import subprocess
import threading
import time


class ProcessError(RuntimeError):
    pass


def run_timed(cmd, cwd, timeout_s=170):
    """Run `cmd` to completion; returns (wall seconds, peak RSS in MB).

    The wall time spans fork to reap, as a user running the command sees
    it; the peak RSS is the child's own maxrss from wait4. Raises
    ProcessError on a non-zero exit or a timeout."""
    err_path = os.path.join(cwd, "last-stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, "rb") as f:
            tail = f.read()[-2000:].decode(errors="replace")
        raise ProcessError(f"{' '.join(cmd)} exited {proc.returncode}: {tail}")
    return wall, usage.ru_maxrss / 1024.0


def run(cmd, cwd, timeout_s=170):
    """Run `cmd`, returning its stdout; raises ProcessError on failure."""
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, timeout=timeout_s,
                         check=False)
    if res.returncode != 0:
        raise ProcessError(f"{' '.join(cmd)} exited {res.returncode}: "
                           f"{res.stderr.decode(errors='replace')[-2000:]}")
    return res.stdout.decode()


class Server:
    """A `rts_serve --listen` process; always stopped and reaped by stop()."""

    def __init__(self, binary, cwd, args, tag):
        self.port_file = os.path.join(cwd, f"port-{tag}.txt")
        self.stats_path = os.path.join(cwd, f"serve-stats-{tag}.txt")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self._stderr = open(self.stats_path, "wb")
        self.proc = subprocess.Popen(
            [binary, "--listen", "0", "--port-file", self.port_file, "--stats"] + args,
            cwd=cwd, stdout=subprocess.DEVNULL, stderr=self._stderr)

    def wait_listening(self, timeout_s=30.0):
        """Wait for the port file, then for one answered line.

        rts_serve publishes its port before it installs its SIGTERM handler,
        so a server stopped right after the port file appears can die of the
        signal instead of draining. A line it answers proves the event loop,
        and so the handler, is up. The probe names no problem file: the
        server answers it with an in-band "failed" line and never submits it
        to the service, so the service counters do not see it."""
        deadline = time.perf_counter() + timeout_s
        port = None
        while port is None:
            if self.proc.poll() is not None:
                raise ProcessError(f"rts_serve exited {self.proc.returncode} at start")
            if time.perf_counter() > deadline:
                raise ProcessError("rts_serve did not start listening")
            try:
                with open(self.port_file) as f:
                    text = f.read()
                port = int(text) if text.endswith("\n") else None
            except FileNotFoundError:
                pass
            if port is None:
                time.sleep(0.0005)
        with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as conn:
            conn.sendall(b"--ready-probe\n")
            reply = conn.makefile("rb").readline()
        if b'"status":"failed"' not in reply:
            raise ProcessError(f"unexpected rts_serve probe reply: {reply!r}")

    def peak_rss_mb(self):
        """VmHWM of the live server process."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ProcessError("no VmHWM for rts_serve")

    def stop(self, timeout_s=60.0):
        """Graceful drain (SIGTERM); returns the drained --stats counters."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            self._stderr.close()
            raise ProcessError("rts_serve did not drain in time")
        self._stderr.close()
        if code != 0:
            raise ProcessError(f"rts_serve exited {code}")
        return self.stats()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._stderr.close()

    def stats(self):
        with open(self.stats_path) as f:
            lines = [line for line in f if line.startswith("{")]
        if not lines:
            raise ProcessError("rts_serve printed no --stats object")
        return json.loads(lines[-1])
