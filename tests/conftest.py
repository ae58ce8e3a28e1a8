"""Test-session settings shared by every test module.

One hypothesis profile for all property tests: no per-example deadline
(timings on shared CI machines vary too much to be a failure), and
``print_blob`` so a failing example prints its ``@reproduce_failure``
line. CI keeps no example database (``.hypothesis/`` is not committed),
so that line is the only way to replay a CI failure.
"""

from hypothesis import settings

settings.register_profile("moelab", deadline=None, print_blob=True)
settings.load_profile("moelab")
