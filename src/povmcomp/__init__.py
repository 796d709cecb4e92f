"""povmcomp: one-shot POVM compression toolkit.

Library layers, bottom up: ``linalg`` (dense Hermitian operations),
``qobjects`` (POVMs, instruments, classical-quantum states), ``sdp``
(dense interior-point engine), ``entropies`` (one-shot entropic quantities),
``splitting`` (rate splitting), ``covering`` (covering experiments and
GOOD-set extraction), ``protocols`` (end-to-end simulators and rate
regions).
"""

__version__ = "0.1.0"
