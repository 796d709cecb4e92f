"""End-to-end simulators and rate regions.

Submodules: ``prep`` (instance preparation and thresholds), ``compress``
(codebooks, compressed POVMs, unassisted simulation), ``hashing``
(2-universal GF(2) hashes), ``cdcqsi`` (classical data compression with
quantum side information), ``compose`` (side-information composition and
the centralised multi-link protocol), ``regions`` (one-shot and iid rate
regions).
"""

from .prep import PreparedInstance, prepare, thresholds  # noqa: F401
from .compress import (  # noqa: F401
    Codebook,
    CodebookPlan,
    CompressedBlock,
    CompressedFamily,
    ProtocolError,
    budget_from_thresholds,
    build_compressed_povm,
    plan_codebooks,
    simulate_unassisted,
)
from .hashing import HashScheme, draw_hash  # noqa: F401
from .cdcqsi import cdc_qsi, sequential_kraus  # noqa: F401
from .compose import centralised_protocol, compose_with_side_information  # noqa: F401
from .regions import RateRegion, iid_region, one_shot_region  # noqa: F401
