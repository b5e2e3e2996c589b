"""One hypothesis profile for every run: the property tests draw the same
examples on every machine, with no example database carried between runs
and no per-example deadline."""

from hypothesis import settings

settings.register_profile("ruinlab", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("ruinlab")
