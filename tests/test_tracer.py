"""The benchmark's layer tracer observes runs without changing them.

`perfbench/tracer.py` wraps each node class's own ``input`` and
``handle``, so a node class that no longer holds them in its body makes
`Tracer.install` raise ``KeyError``.  One short run of each protocol, with
and without the tracer, must give the same report and event log.
"""

import importlib.util
from pathlib import Path

from acool import simnet
from acool.simnet import SimConfig

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer",
    Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

CONFIGS = (
    SimConfig(n=4, t=1, seed=1, msg_len_bits=64),
    SimConfig(n=7, t=2, seed=2, msg_len_bits=64, abba="coin",
              adversary="garbage_shares"),
    SimConfig(n=4, t=1, seed=3, msg_len_bits=64, protocol="rba"),
    SimConfig(n=4, t=1, seed=4, msg_len_bits=64, protocol="rbc"),
    SimConfig(n=10, t=1, seed=5, msg_len_bits=64, protocol="small_t"),
)


def test_traced_runs_equal_untraced_runs():
    plain = [simnet.run(cfg) for cfg in CONFIGS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [simnet.run(cfg) for cfg in CONFIGS]
    finally:
        tracer.uninstall()
    tracer.fold()
    for cfg, a, b in zip(CONFIGS, plain, traced):
        assert a.reason == "ok", cfg
        assert b.to_json() == a.to_json(), cfg
        assert b.log_ndjson() == a.log_ndjson(), cfg
    for layer in ("protocol.handle", "rba_rbc.handle", "small_t.handle",
                  "aba.coin", "simnet.adversary", "simnet.run"):
        assert tracer.calls.get(layer, 0) > 0, layer
