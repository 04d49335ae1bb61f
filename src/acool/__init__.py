"""Error-free asynchronous Byzantine agreement, simulated and measured.

Deterministic message-driven state machines for multi-valued agreement,
reliable agreement, leader broadcast, and a committee variant for small
fault bounds, together with the prime-field Reed-Solomon codec they
share and a seeded adversarial network simulator.
"""

from .field_ecc import (
    CodeParams, DecodeFailure, MessageTooLong, OecAccumulator,
    ResilienceViolation, derive_params, ecc_decode, ecc_encode,
    params_for_message_bits,
)
from .protocol import BOTTOM, AcoolNode
from .rba_rbc import RbaNode, RbcNode
from .small_t import SmallTNode
from .simnet import RunReport, SimConfig, run, scenario_split_input, sweep

__all__ = [
    "AcoolNode", "BOTTOM", "CodeParams", "DecodeFailure", "MessageTooLong",
    "OecAccumulator", "ResilienceViolation", "RbaNode", "RbcNode",
    "RunReport", "SimConfig", "SmallTNode", "derive_params", "ecc_decode",
    "ecc_encode", "params_for_message_bits", "run", "scenario_split_input",
    "sweep",
]
