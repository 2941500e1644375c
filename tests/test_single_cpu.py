"""build_kg completes on a 1-CPU Ray session.

The default template parser runs as stateless tasks, so no actor holds the
only CPU while the tasks feeding it wait for one (an actor pool sized to the
cluster starves its own producers).  Runs in a subprocess because the
session must be created with ``num_cpus=1``, under a hard timeout that
kills the whole process group: a stall fails the test instead of hanging
the suite.
"""

import os
import signal
import subprocess
import sys
import textwrap

TIMEOUT_S = 240


def test_build_kg_on_one_cpu_both_checkpoint_modes(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = textwrap.dedent(f"""
        import ray

        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
            build_kg,
        )
        from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import (
            write_transcripts,
        )

        tdir = {str(tmp_path / "transcripts")!r}
        write_transcripts(tdir, 3, 40)

        def rows(out):
            return sorted(tuple(str(v) for v in r.values())
                          for r in out["triples"].take_all())

        got = {{}}
        for mode in ("minimal", "all"):
            out = build_kg(tdir, {str(tmp_path)!r} + "/kg_" + mode,
                           resume=False, checkpoints=mode, dedup_sort=True)
            got[mode] = rows(out)
            assert out["edges"].count() > 0 and out["entities"].count() > 0
        assert len(got["all"]) > 0 and got["all"] == got["minimal"]
        print("BUILT", len(got["all"]))
        ray.shutdown()
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = repo + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, cwd=repo,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"build_kg at num_cpus=1 still running after "
                             f"{TIMEOUT_S} s")
    assert proc.returncode == 0, err[-3000:]
    assert "BUILT" in out
