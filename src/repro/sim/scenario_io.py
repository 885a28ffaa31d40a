"""Versioned YAML serialization of fleet scenarios (``repro/scenario-v1``).

The declarative layer of PR 9: a concise, versioned YAML schema describing
everything :class:`~repro.sim.scenario.FleetScenario` holds — fleet classes
with per-class node parameters and observation models, the adversary
process, horizon, BTR enforcement and the tolerance threshold — plus an
optional ``run`` section consumed by the CLI runner (``python -m repro
run``).  One YAML file fully specifies a reproducible experiment.

Schema reference (``schema: repro/scenario-v1``)
------------------------------------------------

.. code-block:: yaml

    schema: repro/scenario-v1
    horizon: 200            # episode length T
    enforce_btr: true       # Eq. 6b periodic-recovery constraint
    f: 1                    # optional tolerance threshold (availability)
    fleet:
      labelled: true        # keep per-slot class labels (mixed fleets)
      classes:
        - name: web-server
          count: 2
          params:           # NodeParameters fields; delta_r: .inf allowed
            p_a: 0.1
            p_c1: 1.0e-05
            p_c2: 0.001
            p_u: 0.02
            eta: 2.0
            delta_r: 9
            k: 1
          observations:     # beta-binomial (Appendix E) ...
            type: beta-binomial
            n: 10
            healthy: {alpha: 0.7, beta: 3.0}
            compromised: {alpha: 1.0, beta: 0.7}
    adversary:              # optional; omitted = static i.i.d. attacker
      type: bursty          # one of repro.sim.adversary.ADVERSARY_TYPES
      p_on: 0.05
      p_off: 0.25
      burst_scale: 5.0
      quiet_scale: 0.2
    run:                    # optional; CLI defaults, overridable by flags
      episodes: 200
      seed: 0
      mode: engine          # engine | closed-loop | emulation
      threshold: 0.75       # engine mode: threshold strategy alpha
      n_jobs: 1

Observation models serialize as ``type: beta-binomial`` (introspected from
:class:`~repro.core.observation.BetaBinomialObservationModel`) or as the
catch-all ``type: discrete`` carrying the explicit per-state pmfs (any
other :class:`~repro.core.observation.ObservationModel` degrades to this,
preserving its matrix).  Floats round-trip at full ``repr`` precision and
``delta_r: .inf`` is YAML's native infinity, so
``FleetScenario.from_yaml(s.to_yaml())`` reconstructs equivalent dynamics.

PyYAML is an optional (test-extra) dependency; it is imported lazily so
``import repro`` works without it.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
import os
from typing import Any, Mapping

from ..core.node_model import NodeParameters
from ..core.observation import (
    BetaBinomialObservationModel,
    DiscreteObservationModel,
    ObservationModel,
)
from .adversary import adversary_from_spec, adversary_to_spec
from .scenario import FleetScenario, NodeClass

__all__ = [
    "SCHEMA",
    "scenario_from_yaml",
    "scenario_to_yaml",
    "scenario_to_mapping",
    "scenario_from_mapping",
    "run_section",
    "load_yaml_document",
    "parse_yaml_document",
]

#: Schema identifier every scenario document must carry.
SCHEMA = "repro/scenario-v1"


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - depends on extras
        raise ImportError(
            "the YAML scenario layer requires PyYAML; install the test "
            "extras (pip install .[test]) or pass parsed mappings instead"
        ) from exc
    return yaml


# -- observation models -----------------------------------------------------------
def _observation_to_spec(model: ObservationModel) -> dict[str, Any]:
    if isinstance(model, BetaBinomialObservationModel):
        return {
            "type": "beta-binomial",
            "n": int(model.healthy_params.n),
            "healthy": {
                "alpha": float(model.healthy_params.alpha),
                "beta": float(model.healthy_params.beta),
            },
            "compromised": {
                "alpha": float(model.compromised_params.alpha),
                "beta": float(model.compromised_params.beta),
            },
        }
    matrix = model.matrix()
    return {
        "type": "discrete",
        "observations": [int(o) for o in model.observations],
        "healthy": [float(p) for p in matrix[0]],
        "compromised": [float(p) for p in matrix[1]],
        "crashed": [float(p) for p in matrix[2]],
    }


def _observation_from_spec(spec: Mapping[str, Any]) -> ObservationModel:
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ValueError(
            f"observation spec must be a mapping with a 'type' key, got {spec!r}"
        )
    kind = spec["type"]
    if kind == "beta-binomial":
        healthy = spec.get("healthy", {})
        compromised = spec.get("compromised", {})
        return BetaBinomialObservationModel(
            n=int(spec.get("n", 10)),
            healthy_alpha=float(healthy.get("alpha", 0.7)),
            healthy_beta=float(healthy.get("beta", 3.0)),
            compromised_alpha=float(compromised.get("alpha", 1.0)),
            compromised_beta=float(compromised.get("beta", 0.7)),
        )
    if kind == "discrete":
        for key in ("observations", "healthy", "compromised"):
            if key not in spec:
                raise ValueError(f"discrete observation spec requires {key!r}")
        return DiscreteObservationModel(
            observations=[int(o) for o in spec["observations"]],
            healthy_pmf=[float(p) for p in spec["healthy"]],
            compromised_pmf=[float(p) for p in spec["compromised"]],
            crashed_pmf=(
                [float(p) for p in spec["crashed"]] if "crashed" in spec else None
            ),
        )
    raise ValueError(
        f"unknown observation model type {kind!r}; "
        "known types: ['beta-binomial', 'discrete']"
    )


# -- node parameters --------------------------------------------------------------
_PARAM_FIELDS = tuple(f.name for f in dataclass_fields(NodeParameters))


def _params_to_spec(params: NodeParameters) -> dict[str, Any]:
    return {name: getattr(params, name) for name in _PARAM_FIELDS}


def _params_from_spec(spec: Mapping[str, Any]) -> NodeParameters:
    unknown = set(spec) - set(_PARAM_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown node parameter(s) {sorted(unknown)}; "
            f"known: {sorted(_PARAM_FIELDS)}"
        )
    return NodeParameters(**dict(spec))


# -- scenario <-> mapping ---------------------------------------------------------
def scenario_to_mapping(scenario: FleetScenario) -> dict[str, Any]:
    """The plain-dict form of a scenario (what the YAML text serializes)."""
    labelled = scenario.node_labels is not None
    if labelled:
        classes = scenario.node_classes()
    else:
        # Group consecutive identical (params, model) slots into anonymous
        # classes so homogeneous fleets serialize as one concise entry.
        classes = []
        for j in range(scenario.num_nodes):
            params = scenario.node_params[j]
            model = scenario.observation_models[j]
            if classes and classes[-1].params == params and classes[-1].observation_model is model:
                classes[-1] = NodeClass(
                    name=classes[-1].name,
                    params=params,
                    observation_model=model,
                    count=classes[-1].count + 1,
                )
            else:
                classes.append(
                    NodeClass(
                        name=f"class-{len(classes)}",
                        params=params,
                        observation_model=model,
                        count=1,
                    )
                )
    document: dict[str, Any] = {
        "schema": SCHEMA,
        "horizon": int(scenario.horizon),
        "enforce_btr": bool(scenario.enforce_btr),
        "fleet": {
            "labelled": labelled,
            "classes": [
                {
                    "name": c.name,
                    "count": int(c.count),
                    "params": _params_to_spec(c.params),
                    "observations": _observation_to_spec(c.observation_model),
                }
                for c in classes
            ],
        },
    }
    if scenario.f is not None:
        document["f"] = int(scenario.f)
    if scenario.adversary is not None:
        document["adversary"] = adversary_to_spec(scenario.adversary)
    return document


def scenario_from_mapping(document: Mapping[str, Any]) -> FleetScenario:
    """Build a :class:`FleetScenario` from a parsed scenario mapping.

    Accepts either a bare scenario mapping or a full runner document whose
    ``scenario`` key holds one.
    """
    if not isinstance(document, Mapping):
        raise ValueError(f"scenario document must be a mapping, got {type(document).__name__}")
    if "scenario" in document and "fleet" not in document:
        document = document["scenario"]
        if not isinstance(document, Mapping):
            raise ValueError("the 'scenario' section must be a mapping")
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"unsupported scenario schema {schema!r}; this version reads {SCHEMA!r}"
        )
    fleet = document.get("fleet")
    if not isinstance(fleet, Mapping) or "classes" not in fleet:
        raise ValueError("scenario requires a 'fleet' mapping with a 'classes' list")
    raw_classes = fleet["classes"]
    if not isinstance(raw_classes, (list, tuple)) or not raw_classes:
        raise ValueError("fleet.classes must be a non-empty list")
    classes = []
    for index, entry in enumerate(raw_classes):
        if not isinstance(entry, Mapping):
            raise ValueError(f"fleet.classes[{index}] must be a mapping, got {entry!r}")
        classes.append(
            NodeClass(
                name=str(entry.get("name", f"class-{index}")),
                params=_params_from_spec(entry.get("params", {})),
                observation_model=_observation_from_spec(entry.get("observations", {})),
                count=int(entry.get("count", 1)),
            )
        )
    adversary = None
    if document.get("adversary") is not None:
        adversary = adversary_from_spec(document["adversary"])
    labelled = bool(fleet.get("labelled", True))
    horizon = int(document.get("horizon", 200))
    enforce_btr = bool(document.get("enforce_btr", True))
    f = document.get("f")
    f = None if f is None else int(f)
    if labelled:
        return FleetScenario.mixed(
            classes,
            horizon=horizon,
            enforce_btr=enforce_btr,
            f=f,
            adversary=adversary,
        )
    params: list[NodeParameters] = []
    models: list[ObservationModel] = []
    for node_class in classes:
        params.extend([node_class.params] * node_class.count)
        models.extend([node_class.observation_model] * node_class.count)
    return FleetScenario(
        tuple(params),
        tuple(models),
        horizon=horizon,
        enforce_btr=enforce_btr,
        f=f,
        adversary=adversary,
    )


def run_section(document: Mapping[str, Any]) -> dict[str, Any]:
    """The (possibly empty) ``run`` section of a parsed runner document."""
    run = document.get("run") if isinstance(document, Mapping) else None
    if run is None:
        return {}
    if not isinstance(run, Mapping):
        raise ValueError("the 'run' section must be a mapping")
    return dict(run)


# -- YAML entry points ------------------------------------------------------------
def load_yaml_document(source) -> Mapping[str, Any]:
    """Parse a YAML path, text, open file, or mapping into a mapping.

    Shared by :func:`scenario_from_yaml` and the CLI runner (which also
    needs the document's ``run`` section).  A one-line string ending in
    ``.yaml``/``.yml`` is read as a path; untrusted input goes through
    :func:`parse_yaml_document` instead, which never opens a file.
    """
    if isinstance(source, Mapping):
        return source
    if not isinstance(source, (str, bytes, os.PathLike)) and not hasattr(
        source, "read"
    ):
        raise ValueError(
            "a scenario document must be a mapping, YAML text, a file or a "
            f"path, got {type(source).__name__}"
        )
    text = source
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, os.PathLike) or (
        isinstance(source, str)
        and "\n" not in source
        and source.endswith((".yaml", ".yml"))
    ):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_yaml_document(text)


def parse_yaml_document(source) -> Mapping[str, Any]:
    """Parse a mapping or YAML *text* into a mapping; never touches files.

    A string is always YAML text, even if it looks like a path, so a
    document received from a client cannot make the process read its own
    files.
    """
    if isinstance(source, Mapping):
        return source
    if not isinstance(source, (str, bytes)):
        raise ValueError(
            "a scenario document must be a mapping or YAML text, got "
            f"{type(source).__name__}"
        )
    yaml = _yaml()
    try:
        document = yaml.safe_load(source)
    except yaml.YAMLError as exc:
        # Surface parse failures as the named ValueError the CLI's error
        # paths catch, instead of a backend-specific exception type.
        raise ValueError(f"malformed scenario YAML: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ValueError(
            "scenario YAML must parse to a mapping, got "
            f"{type(document).__name__}"
        )
    return document


def scenario_from_yaml(source) -> FleetScenario:
    """Build a scenario from a YAML path, YAML text, open file, or mapping."""
    return scenario_from_mapping(load_yaml_document(source))


def scenario_to_yaml(scenario: FleetScenario, path=None) -> str:
    """Serialize a scenario to YAML text (optionally writing it to ``path``)."""
    yaml = _yaml()
    text = yaml.safe_dump(
        scenario_to_mapping(scenario), sort_keys=False, default_flow_style=False
    )
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
