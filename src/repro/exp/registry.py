"""The experiment registry.

Every experiment is a subclass of :class:`Experiment` registered with
:func:`register_experiment`.  The registry is what collapses the old
one-module-per-experiment sprawl into a single pipeline: the runner
asks the registered definition for the independent measurement points
of a spec, measures them (serially or across a process pool), and
hands the ordered results back for summarization — and the CLI
generates its experiment subcommands from the same registry.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.exp.spec import ExperimentSpec
from repro.topology.graph import Topology

__all__ = [
    "CliOption",
    "Experiment",
    "get_experiment",
    "list_experiments",
    "positive_float",
    "positive_int",
    "probability",
    "register_experiment",
    "switch_count",
]


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def switch_count(text: str) -> int:
    """argparse type: a switch count, an integer >= 2 (one switch
    cannot form the irregular fabrics the experiments build)."""
    value = positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return value


def probability(text: str) -> float:
    """argparse type: a probability, a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 and <= 1, got {text}")
    return value


@dataclass(frozen=True)
class CliOption:
    """One argparse option an experiment contributes to its subcommand."""

    flags: tuple[str, ...]
    kwargs: dict

    @classmethod
    def make(cls, *flags: str, **kwargs: Any) -> "CliOption":
        return cls(flags=flags, kwargs=kwargs)


class Experiment:
    """One registered experiment definition.

    Subclasses override the four pipeline hooks:

    * :meth:`default_spec` — the spec a bare ``repro run <name>`` uses,
    * :meth:`points` — the independent measurement points of a spec
      (each point is a small picklable dict; points must not depend on
      each other — the runner may execute them in separate processes),
    * :meth:`measure` — evaluate one point (runs in a worker when
      ``--jobs > 1``; must derive everything from ``spec`` + ``point``),
    * :meth:`summarize` — merge the ordered point results into the
      experiment's result object (always runs in the parent).

    CLI integration hooks (:attr:`cli_options`, :meth:`spec_from_args`,
    :meth:`render`) let the command-line interface generate one
    subcommand per registered experiment from this same definition.
    Route warm-up (:meth:`route_requirements`) tells the runner which
    route tables the points share so the cache can be warmed before
    forking.
    """

    #: Registered name (set by :func:`register_experiment`).
    name: str = ""
    #: One-line description for ``repro list`` / subcommand help.
    title: str = ""

    #: Options the CLI adds to this experiment's subcommand.
    cli_options: tuple[CliOption, ...] = ()

    # -- pipeline hooks ----------------------------------------------------

    def default_spec(self) -> ExperimentSpec:
        """The spec a bare ``repro run <name>`` uses."""
        return ExperimentSpec(experiment=self.name)

    def points(self, spec: ExperimentSpec) -> list[dict]:
        """The independent measurement points of ``spec``, in result
        order (each a small picklable dict)."""
        raise NotImplementedError

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        """Evaluate one point (possibly in a worker process); must
        derive everything from ``spec`` + ``point`` + ``ctx``."""
        raise NotImplementedError

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        """Merge the ordered point results into the experiment's
        result object (always runs in the parent)."""
        raise NotImplementedError

    def route_requirements(
        self, spec: ExperimentSpec
    ) -> Iterable[tuple[Topology, str, Optional[int]]]:
        """``(topology, routing, root)`` combos the points will need.

        The runner warms the shared route cache with these in the
        parent process before fanning points out, so each shared table
        is computed at most once no matter how many workers run.
        """
        return ()

    # -- CLI hooks ---------------------------------------------------------

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        """Build a spec from this experiment's parsed CLI arguments."""
        return self.default_spec()

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        """Human-readable report for the CLI (tables, summaries)."""
        return repr(result)

    def exit_status(self, result: Any) -> int:
        """CLI exit code: non-zero when the result breaches a contract."""
        return 0


_REGISTRY: dict[str, Experiment] = {}
_definitions_loaded = False


def register_experiment(
    name: str, title: str = ""
) -> Callable[[type], type]:
    """Class decorator registering an :class:`Experiment` subclass."""

    def deco(cls: type) -> type:
        if not issubclass(cls, Experiment):
            raise TypeError(f"{cls.__name__} must subclass Experiment")
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} already registered")
        # Inherit hook docstrings from the base class so every
        # override stays documented without restating the contract.
        for attr, impl in vars(cls).items():
            base = getattr(Experiment, attr, None)
            if (callable(impl) and not impl.__doc__
                    and base is not None and base.__doc__):
                impl.__doc__ = base.__doc__
        instance = cls()
        instance.name = name
        if title:
            instance.title = title
        _REGISTRY[name] = instance
        return cls

    return deco


def _load_definitions() -> None:
    """Import the built-in experiment definitions exactly once."""
    global _definitions_loaded
    if not _definitions_loaded:
        _definitions_loaded = True
        import repro.exp.experiments  # noqa: F401  (registration side effect)


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment by name."""
    _load_definitions()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {name!r}; registered: {known}"
        ) from None


def list_experiments() -> list[Experiment]:
    """All registered experiments, sorted by name."""
    _load_definitions()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]
