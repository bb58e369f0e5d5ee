"""Suite-wide test settings: hypothesis runs a fixed set of examples and never times out."""

from hypothesis import settings

settings.register_profile("gridsched", derandomize=True, deadline=None, database=None)
settings.load_profile("gridsched")
