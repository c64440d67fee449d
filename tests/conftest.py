"""Suite-wide hypothesis settings.

``derandomize`` draws the same examples on every run, so the suite stays
deterministic; ``deadline=None`` because host speed varies between runs
(see ``perfbench/README.md``), and a per-example deadline would flake.
"""

from hypothesis import settings

settings.register_profile("unarysort", derandomize=True, deadline=None)
settings.load_profile("unarysort")
