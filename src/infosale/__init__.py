"""Revenue-optimal mechanisms for selling information to budget-constrained
decision makers: polynomial-size LP solvers for four menu families,
extensive-form protocol simulation with the revelation collapse, independent
feasibility verification, and the sample-then-solve pipeline for unknown
priors."""

from .errors import (InfosaleError, InputError, PreconditionError,
                     ProtocolInvalidError, SolverFailure)
from .model import (Instance, PriorView, bayes_update, conditional_belief,
                    is_independent, instance_to_json_dict, load_instance,
                    outside_option, positive_types, prior_view, surplus,
                    treasure_box, validate)
from .lpcore import LinearProgram, LPSolution
from .mechanisms import (Menu, buyer_utility, expected_revenue,
                         full_revelation_menu, mechanism_from_json_dict,
                         mechanism_to_json_dict, replicate_as_prob_return,
                         revenue_cap, solve_cm_depr, solve_cm_dirp,
                         solve_cm_probr, solve_single_round)
from .protocol import (BuyerNode, EvalResult, Leaf, SellerNode, TransferNode,
                       evaluate, mechanism_to_protocol, parse_protocol,
                       protocol_to_json_dict, simulate, to_revelation,
                       two_option_tree)
from .sampling import (EmpiricalPrior, InstanceOracle, ReplayOracle,
                       certified_slack, draw_samples, run_mechanism1,
                       sample_complexity_bound, solve_epsilon_lp)
from .verify import (CheckResult, VerificationReport, check_budget, check_ic,
                     check_ir, check_obedience, check_revenue_cap, verify_all)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
