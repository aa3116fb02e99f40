"""Test-wide hypothesis settings: no example database.

Hypothesis replays the failing draws it stored in ``.hypothesis/``, so a
stale draw from an earlier revision would run again ahead of the fresh
ones. Without a database every run draws as a fresh checkout does; the
example counts and the randomness are hypothesis' defaults, as before.
"""

from hypothesis import settings

settings.register_profile("no-database", database=None)
settings.load_profile("no-database")
