"""Exact sofic-approximation certificates for free-group actions."""

from .words import Word, free_reduce, identity, invert, multiply, parse_word
from .stallings import (
    CosetTable,
    InseparableError,
    StallingsGraph,
    contains,
    core_graph,
    coset_of,
    hall_completion,
    left_coset_of,
)
from .actions import (
    BiregularAction,
    CosetAction,
    RestrictedAction,
    act,
    canonical_point,
    separation_targets,
)
from .builder import (
    Certificate,
    CertificateFormatError,
    approximate,
    load_certificate,
    restrict_certificate,
    write_certificate,
)
from .verifier import (
    VerificationReport,
    brute_force_witness,
    hamming,
    verify_certificate,
)

__version__ = "0.1.0"
