"""Guest memory sanitizer: dynamic shadow checking of guest data accesses.

:mod:`.shadow` and :mod:`.core` keep MemCheck-style
addressability/definedness bits over the allocator-managed part of
guest RAM and turn violations into typed findings, attributed to the
owning instruction through the CFG the static walker builds.
:mod:`.corpus` holds the seeded defect programs that prove every class
is caught.
"""

from .core import AllocInfo, MemorySanitizer, REDZONE, attribution
from .shadow import A_BIT, D_BIT, OK, ShadowMap

__all__ = [
    "A_BIT",
    "AllocInfo",
    "D_BIT",
    "MemorySanitizer",
    "OK",
    "REDZONE",
    "ShadowMap",
    "attribution",
]
