"""Hypothesis settings shared by every test.

A failure prints its ``@reproduce_failure`` blob, so that a rare failing
example can be pinned as an ``@example`` even though ``.hypothesis/`` is
not kept.  Each test's own ``@settings`` still set its example count.
"""

from hypothesis import settings

settings.register_profile("quadwalk", print_blob=True)
settings.load_profile("quadwalk")
