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
from .certificate import Certificate, CertificateFormatError, load_certificate, write_certificate
from .builder import approximate, restrict_certificate
from .verifier import VerificationReport, hamming, verify_certificate
from .harness import brute_force_witness

__version__ = "0.1.0"
