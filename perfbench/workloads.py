"""Benchmark workloads: streams of simulator configs built from a seed.

A workload maps a workload seed and a group index to one *group* of
`SimConfig`s; groups 0, 1, 2, ... form the workload's stream.  The same
seed always gives the same stream.  The first ``fixed_groups`` groups are
the *fixed prefix*: every run of the benchmark makes them, so metrics and
replay digests taken over it repeat exactly.

Strategy, scheduler and grid names are spelled out here rather than read
from `acool.simnet.ADVERSARIES`, `SCHEDULERS` or `acool.acceptance.GRID`,
so that adding a strategy or a scheduler to the program does not silently
change what a workload measures.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

from acool.field_ecc import params_for_message_bits
from acool.simnet import SimConfig, scenario_split_input
from acool.small_t import committee_size

DEFAULT_SEED = 0

GRID = ((4, 1), (7, 2), (10, 3))
STRATEGIES = (
    "crash_silent", "equivocate_symbols", "garbage_shares",
    "withhold_from_subset", "split_input_builder", "ready_spammer",
    "random_byzantine",
)
SCHEDULERS = ("uniform", "lifo", "adversary")


def _sim_seed(seed: int, j: int) -> int:
    """Simulator seed of group ``j``; disjoint across workload seeds."""
    if not 0 <= j < 1000:
        raise ValueError(f"group index {j} outside 0..999")
    return seed * 1000 + j


def scale_n49(seed: int, j: int) -> list:
    return [SimConfig(n=49, t=16, seed=_sim_seed(seed, j), msg_len_bits=4096)]


def byz_decode_n31(seed: int, j: int) -> list:
    return [SimConfig(n=31, t=10, seed=_sim_seed(seed, j), msg_len_bits=1024,
                      adversary="garbage_shares", scheduler="adversary")]


def accept_grid(seed: int, j: int) -> list:
    """The acceptance grid at two simulator seeds, one of each hint bit.

    The binary-agreement hint is ``sim_seed % 2``, as in the acceptance
    suite.  It moves the mean run time by about half, so every group holds
    both values and costs about the same whatever the seed.
    """
    configs = []
    for s in (_sim_seed(seed, 2 * j), _sim_seed(seed, 2 * j + 1)):
        for n, t in GRID:
            for adversary in STRATEGIES:
                for scheduler in SCHEDULERS:
                    equal = SimConfig(n=n, t=t, seed=s, msg_len_bits=64,
                                      adversary=adversary, scheduler=scheduler,
                                      abba_hint=s % 2)
                    camp_a, camp_b = equal.default_message(1), equal.default_message(2)
                    two_camp = replace(equal, inputs={
                        i: camp_a if i <= n // 2 else camp_b
                        for i in range(1, n + 1)})
                    configs += [equal, two_camp]
    return configs


def variants(seed: int, j: int) -> list:
    s = _sim_seed(seed, j)
    return [
        scenario_split_input(13, 4, seed=s, msg_len_bits=1024, abba="coin"),
        SimConfig(n=13, t=4, seed=s, msg_len_bits=1024, abba="coin",
                  adversary="equivocate_symbols"),
        SimConfig(n=13, t=4, seed=s, msg_len_bits=1024, protocol="rba",
                  adversary="equivocate_symbols"),
        SimConfig(n=13, t=4, seed=s, msg_len_bits=1024, protocol="rbc",
                  adversary="garbage_shares"),
        SimConfig(n=13, t=4, seed=s, msg_len_bits=1024, protocol="rbc",
                  leader=13, adversary="equivocate_symbols"),
        SimConfig(n=31, t=2, seed=s, msg_len_bits=1024, protocol="small_t",
                  adversary="garbage_shares"),
    ]


class Workload(NamedTuple):
    group: Callable[[int, int], list]   # (workload seed, index) -> configs
    fixed_groups: int                   # groups in the fixed prefix


# Fixed prefixes take 10 to 18 seconds on a 2-core x86-64 virtual machine.
WORKLOADS = {
    "scale-n49": Workload(scale_n49, 6),
    "byz-decode-n31": Workload(byz_decode_n31, 11),
    "accept-grid": Workload(accept_grid, 4),
    "variants": Workload(variants, 16),
}


def code_params(config: SimConfig):
    """Code geometry of one run, as the simulator derives it."""
    n = committee_size(config.t) if config.protocol == "small_t" else config.n
    return params_for_message_bits(n, config.t, config.msg_len_bits)


def build(name: str, seed: int) -> tuple:
    """The fixed prefix of workload ``name``: its configs and code params."""
    workload = WORKLOADS[name]
    configs = [c for j in range(workload.fixed_groups)
               for c in workload.group(seed, j)]
    return configs, [code_params(c) for c in configs]
