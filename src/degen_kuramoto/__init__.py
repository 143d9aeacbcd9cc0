"""Completely degenerate equilibria of sine-coupled phase oscillators on graphs.

Detection, exact enumeration via quarter-turn labelings, the two-way
correspondence with mod-4 Euler circuits, bipartite constructions for
non-identical oscillators, saddle instability probes, and Monte Carlo
rarity experiments.
"""

from .cli import cli_dispatch
from .degeneracy import (
    AdmitsReport,
    BudgetExceededError,
    CdeVerdict,
    CircuitLabelConflictError,
    EulerCircuit,
    Mod4Verdict,
    NonidenticalConstruction,
    NonidenticalVerdict,
    QuarterLabeling,
    admits_cde,
    check_mod4_circuit,
    circuit_to_phases,
    construct_nonidentical_cde,
    enumerate_cdes,
    is_cde,
    is_cde_nonidentical,
    phases_to_circuit,
)
from .docio import (
    FORMAT,
    GraphDocument,
    canonical_json,
    emit_json,
    parse_edge_list,
    parse_json,
    read_document,
)
from .dynamics import (
    EscapeReport,
    NonFiniteStateError,
    SimulationTrace,
    descending_sign,
    edge_pair_direction,
    edge_pair_perturbation,
    energy_gap_identical,
    instability_probe,
    integrate,
    vertex_perturbation_gap,
)
from .experiments import FamilySweepRow, RarityReport, family_sweep, rarity_experiment
from .graphs import (
    BipartitenessResult,
    EulerianResult,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    contains_triangle,
    cycle_graph,
    erdos_renyi,
    glue_four_cycle,
    hypercube_graph,
    is_bipartite,
    is_eulerian,
)
from .oscillator import (
    HALF_PI,
    TWO_PI,
    OscillatorSystem,
    SpectrumReport,
    circular_distance,
    classify_edges,
    energy,
    gradient_consistency,
    jacobian,
    phase_vector,
    signed_gap,
    symmetric_eigenvalues,
    vector_field,
)
from .render import PALETTE, render_svg

__version__ = "0.1.0"
