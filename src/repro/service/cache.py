"""Re-exports the execution stages' one compiler, :mod:`repro.core.program_cache`."""

from repro.core.program_cache import CacheStats, ProgramCache

__all__ = ["CacheStats", "ProgramCache"]
