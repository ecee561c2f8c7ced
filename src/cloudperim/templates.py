"""Built-in scenario templates, one per reference architecture.

Templates are ordinary scenario documents shipped as package data and parsed
by the regular parser, so ``builtin_scenario(name)`` is structurally equal to
``parse_scenario(template_text(name))`` by construction. Every template
validates cleanly and lints with no error-severity findings.
"""

from __future__ import annotations

from importlib import resources

from .errors import UnknownTemplateError
from .scenario import Scenario, parse_scenario

TEMPLATE_NAMES = (
    "fig1-lift-shift",
    "fig3-hierarchy",
    "fig4-landing-point",
    "fig5-vm",
    "fig6-k8s",
    "fig7-custom-platform",
    "fig8-direct-clp",
    "fig9-direct-no-clp",
    "fig10-zero-trust",
    "fig11-combined",
)

_cache: dict[str, Scenario] = {}


def template_text(name: str) -> str:
    """The raw scenario document for a template."""
    if name not in TEMPLATE_NAMES:
        raise UnknownTemplateError(f"unknown template {name!r}")
    return resources.files("cloudperim.data").joinpath(f"{name}.yaml").read_text("utf-8")


def builtin_scenario(name: str) -> Scenario:
    """Parse (and cache) one of the built-in templates."""
    if name not in TEMPLATE_NAMES:
        raise UnknownTemplateError(f"unknown template {name!r}")
    if name not in _cache:
        _cache[name] = parse_scenario(template_text(name))
    return _cache[name]
