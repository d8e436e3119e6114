"""Deterministic scenario engine and figure reproductions."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FigureResult": "figures",
    "InFlight": "harness",
    "NaiveProtocol": "naive",
    "ScenarioHarness": "harness",
    "all_figures": "figures",
    "figure1": "figures",
    "figure2": "figures",
    "figure2_with_mutable": "figures",
    "figure3": "figures",
    "figure4": "figures",
})
