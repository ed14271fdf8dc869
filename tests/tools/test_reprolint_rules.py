"""Per-rule fixture tests: one positive, one negative, one suppression
per contract, driven through the real ``lint_file`` pipeline so scope,
suppression and reporting behave exactly as on the shipped tree."""

from pathlib import Path

import pytest

from tools.reprolint.core import lint_file
from tools.reprolint.rules import ALL_RULES


def _lint(root: Path, rel: str, source: str) -> list[str]:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return [f.rule for f in lint_file(rel, ALL_RULES, root=str(root))]


# Each case: (rule, path, source, expect_hit).  The suppression variant
# is generated from every positive case automatically below.
CASES = [
    # -- executor-ownership ----------------------------------------------
    (
        "executor-ownership",
        "src/repro/x.py",
        "def f():\n"
        "    ex = make_executor('pool', 4)\n"
        "    ex.map(fn, tasks)\n",
        True,
    ),
    (
        "executor-ownership",
        "src/repro/x.py",
        "def f():\n"
        "    ex = make_executor('pool', 4)\n"
        "    try:\n"
        "        ex.map(fn, tasks)\n"
        "    finally:\n"
        "        ex.close()\n",
        False,
    ),
    (
        "executor-ownership",
        "src/repro/x.py",
        "def f():\n"
        "    with owned_executor('pool', 4) as ex:\n"
        "        ex.map(fn, tasks)\n",
        False,
    ),
    (
        "executor-ownership",
        "src/repro/x.py",
        "def f():\n    return make_executor('pool', 4)\n",
        False,
    ),
    (
        "executor-ownership",
        "src/repro/x.py",
        "def f():\n"
        "    ex = supervised_executor('cluster', failover='pool')\n"
        "    return ex\n",
        False,
    ),
    (
        "executor-ownership",
        "src/repro/x.py",
        "def f():\n    with make_executor('pool', 4) as ex:\n        pass\n",
        False,
    ),
    # The rule is scoped to the library, not tests/benches.
    (
        "executor-ownership",
        "tests/test_x.py",
        "def f():\n    ex = make_executor('pool', 4)\n",
        False,
    ),
    # -- bounded-blocking -------------------------------------------------
    (
        "bounded-blocking",
        "src/repro/parallel/x.py",
        "def f(result):\n    return result.get()\n",
        True,
    ),
    (
        "bounded-blocking",
        "src/repro/parallel/x.py",
        "def f(result):\n    return result.get(30.0)\n",
        False,
    ),
    (
        "bounded-blocking",
        "src/repro/distributed/x.py",
        "def f(conn):\n    return conn.recv()\n",
        True,
    ),
    (
        "bounded-blocking",
        "src/repro/distributed/x.py",
        "def f(proc):\n    proc.join()\n",
        True,
    ),
    (
        "bounded-blocking",
        "src/repro/parallel/x.py",
        "def f(barrier):\n    barrier.wait(timeout=5.0)\n",
        False,
    ),
    # dict.get(key) / str.join(parts) carry arguments and pass.
    (
        "bounded-blocking",
        "src/repro/parallel/x.py",
        "def f(d):\n    return d.get('key')\n",
        False,
    ),
    # Out of scope: the coloring layer makes no blocking calls itself.
    (
        "bounded-blocking",
        "src/repro/coloring/x.py",
        "def f(result):\n    return result.get()\n",
        False,
    ),
    # -- no-random-module -------------------------------------------------
    ("no-random-module", "src/repro/x.py", "import random\n", True),
    (
        "no-random-module",
        "src/repro/x.py",
        "from random import shuffle\n",
        True,
    ),
    ("no-random-module", "src/repro/x.py", "import numpy as np\n", False),
    # -- legacy-np-random -------------------------------------------------
    (
        "legacy-np-random",
        "src/repro/x.py",
        "import numpy as np\nx = np.random.rand(3)\n",
        True,
    ),
    (
        "legacy-np-random",
        "src/repro/x.py",
        "import numpy as np\nrng = np.random.default_rng(0)\n",
        True,
    ),
    (
        "legacy-np-random",
        "src/repro/x.py",
        "from numpy.random import default_rng\n",
        True,
    ),
    (
        "legacy-np-random",
        "src/repro/x.py",
        "def f(rng: 'np.random.Generator') -> None:\n    x = rng.random(3)\n",
        False,
    ),
    # rng.py is the one place allowed to touch numpy.random directly.
    (
        "legacy-np-random",
        "src/repro/util/rng.py",
        "import numpy as np\nrng = np.random.default_rng(0)\n",
        False,
    ),
    # -- no-wallclock -----------------------------------------------------
    ("no-wallclock", "src/repro/x.py", "import time\nt = time.time()\n", True),
    (
        "no-wallclock",
        "src/repro/x.py",
        "from datetime import datetime\nd = datetime.now()\n",
        True,
    ),
    (
        "no-wallclock",
        "src/repro/x.py",
        "import time\nt = time.perf_counter()\n",
        False,
    ),
    # -- telemetry-clock --------------------------------------------------
    (
        "telemetry-clock",
        "src/repro/x.py",
        "import time\nt0 = time.perf_counter()\n",
        True,
    ),
    (
        "telemetry-clock",
        "src/repro/x.py",
        "import time\nt0 = time.monotonic()\n",
        True,
    ),
    (
        "telemetry-clock",
        "src/repro/x.py",
        "from time import perf_counter\n",
        True,
    ),
    (
        "telemetry-clock",
        "src/repro/x.py",
        "from repro import telemetry\nt0 = telemetry.clock()\n",
        False,
    ),
    # time.sleep is not a timer; only the timing reads are routed.
    (
        "telemetry-clock",
        "src/repro/x.py",
        "import time\ntime.sleep(0.1)\n",
        False,
    ),
    # The telemetry package itself wraps the stdlib timer.
    (
        "telemetry-clock",
        "src/repro/telemetry/x.py",
        "import time\nt0 = time.perf_counter()\n",
        False,
    ),
    # -- set-iteration ----------------------------------------------------
    (
        "set-iteration",
        "src/repro/coloring/x.py",
        "def f(xs):\n    for v in set(xs):\n        use(v)\n",
        True,
    ),
    (
        "set-iteration",
        "src/repro/parallel/x.py",
        "def f(xs):\n    return [g(v) for v in {x.k for x in xs}]\n",
        True,
    ),
    (
        "set-iteration",
        "src/repro/coloring/x.py",
        "def f(xs):\n    return list({1, 2, 3})\n",
        True,
    ),
    (
        "set-iteration",
        "src/repro/coloring/x.py",
        "def f(xs):\n    for v in sorted(set(xs)):\n        use(v)\n",
        False,
    ),
    # Membership tests on sets are fine; only iteration order leaks.
    (
        "set-iteration",
        "src/repro/coloring/x.py",
        "def f(xs, seen):\n    return [x for x in xs if x in seen]\n",
        False,
    ),
    # Outside the pipeline dirs, set iteration is not a determinism risk.
    (
        "set-iteration",
        "src/repro/predict/x.py",
        "def f(xs):\n    for v in set(xs):\n        use(v)\n",
        False,
    ),
    # -- engine-registry --------------------------------------------------
    (
        "engine-registry",
        "src/repro/driver.py",
        "from repro.coloring.greedy_list import greedy_list_color_dynamic\n",
        True,
    ),
    (
        "engine-registry",
        "src/repro/driver.py",
        "from repro.coloring.engine import get_engine\n",
        False,
    ),
    (
        "engine-registry",
        "src/repro/driver.py",
        "from repro.coloring import greedy_list_color_dynamic\n",
        False,
    ),
    # Inside the coloring package, implementation imports are the point.
    (
        "engine-registry",
        "src/repro/coloring/engine.py",
        "from repro.coloring.greedy_list import greedy_list_color_dynamic\n",
        False,
    ),
    # -- backend-registry -------------------------------------------------
    (
        "backend-registry",
        "src/repro/device/tiles.py",
        "import numba\n",
        True,
    ),
    (
        "backend-registry",
        "src/repro/core/x.py",
        "from cupy import asnumpy\n",
        True,
    ),
    # Only the top-level module name counts: a look-alike is fine.
    (
        "backend-registry",
        "src/repro/parallel/x.py",
        "import numbers\n",
        False,
    ),
    # The pick kernel is the numpy one in repro.util.bits.
    (
        "backend-registry",
        "src/repro/coloring/parallel_list.py",
        "from repro.util.bits import lowest_set_bit_rows\n",
        False,
    ),
    # No package is exempt: a device/ submodule is a finding too.
    (
        "backend-registry",
        "src/repro/device/backends/numba_backend.py",
        "import numba\n",
        True,
    ),
    # -- socket-scope -----------------------------------------------------
    (
        "socket-scope",
        "src/repro/core/x.py",
        "import multiprocessing as mp\n",
        True,
    ),
    ("socket-scope", "src/repro/device/x.py", "import socket\n", True),
    (
        "socket-scope",
        "src/repro/parallel/executor.py",
        "import multiprocessing as mp\n",
        False,
    ),
    (
        "socket-scope",
        "src/repro/distributed/transport.py",
        "import socket\n",
        False,
    ),
    # -- private-import ---------------------------------------------------
    (
        "private-import",
        "src/repro/coloring/x.py",
        "from repro.parallel.pool import _WORKER\n",
        True,
    ),
    (
        "private-import",
        "src/repro/coloring/x.py",
        "from repro.parallel.pool import strip_shares\n",
        False,
    ),
    (
        "private-import",
        "src/repro/parallel/shm.py",
        "from repro.parallel.pool import _WORKER\n",
        False,
    ),
    # -- shm-region-scope -------------------------------------------------
    (
        "shm-region-scope",
        "src/repro/device/x.py",
        "def f(nbytes):\n    return ShmCooRegion.create(nbytes)\n",
        True,
    ),
    (
        "shm-region-scope",
        "src/repro/device/x.py",
        "def f(nbytes):\n    return SharedMemory(create=True, size=nbytes)\n",
        True,
    ),
    (
        "shm-region-scope",
        "src/repro/parallel/shm.py",
        "def f(nbytes):\n    return ShmCooRegion.create(nbytes)\n",
        False,
    ),
    (
        "shm-region-scope",
        "src/repro/device/x.py",
        "def f(name):\n    return SharedMemory(name=name)\n",
        False,
    ),
    # -- scratch-context --------------------------------------------------
    (
        "scratch-context",
        "src/repro/device/x.py",
        "def f(dev):\n    s = dev.scratch('buf', 64)\n    return 1\n",
        True,
    ),
    (
        "scratch-context",
        "src/repro/device/x.py",
        "def f(dev):\n    with dev.scratch('buf', 64):\n        return 1\n",
        False,
    ),
    (
        "scratch-context",
        "src/repro/device/x.py",
        "def f(dev, stack):\n"
        "    stack.enter_context(dev.scratch('buf', 64))\n",
        False,
    ),
    (
        "scratch-context",
        "src/repro/device/x.py",
        "def f(dev):\n    return dev.scratch('buf', 64)\n",
        False,
    ),
    # -- no-bare-print ----------------------------------------------------
    ("no-bare-print", "src/repro/worker.py", "print('diag')\n", True),
    (
        "no-bare-print",
        "src/repro/worker.py",
        "import sys\nprint('diag', file=sys.stderr)\n",
        False,
    ),
    ("no-bare-print", "src/repro/cli.py", "print('result')\n", False),
]


@pytest.mark.parametrize(
    "rule,rel,source,expect",
    CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
)
def test_rule_fixture(tmp_path, rule, rel, source, expect):
    hits = _lint(tmp_path, rel, source)
    if expect:
        assert rule in hits, f"expected {rule} to fire"
    else:
        assert rule not in hits, f"unexpected {rule} finding"


POSITIVE_CASES = [c for c in CASES if c[3]]


@pytest.mark.parametrize(
    "rule,rel,source",
    [(c[0], c[1], c[2]) for c in POSITIVE_CASES],
    ids=[f"{c[0]}-{i}" for i, c in enumerate(POSITIVE_CASES)],
)
def test_rule_suppression(tmp_path, rule, rel, source):
    """Every positive fixture goes quiet under a file-wide suppression."""
    suppressed = f"# reprolint: disable-file={rule} -- fixture\n" + source
    assert rule not in _lint(tmp_path, rel, suppressed)
