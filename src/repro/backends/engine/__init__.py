"""The in-memory algebra engine backend."""

from .backend import EngineBackend
from .evaluate import BundleProgram, Engine
from .relation import Relation

__all__ = ["BundleProgram", "Engine", "EngineBackend", "Relation"]
