"""Principal values and Hadamard finite parts as absolutely convergent
contour integrals, with classical-definition and boundary-value cross-checks."""

from .apv import (ApvReport, apv_average, apv_lower, apv_upper, default_paths,
                  derivative_at_pole, jump_relation_check, report_to_dict)
from .classical import (EpsSchedule, TaylorCoeffs, fox_limit, series_cpv,
                        series_fpi, series_Fn, taylor_from_expr)
from .expr import AnalyticityDecl, EvalError, Expr, ParseError, parse, validate_region
from .paths import (Arc, ComplexPath, IntegralSpec, Line, classify_side,
                    path_from_dict, path_to_dict, semicircle_path)
from .quadrature import (QuadConfig, QuadResult, integrate_path,
                         integrate_real_segment)
from .spf import BoundaryReport, boundary_values, phi_at, spf_identity_check

__version__ = "0.1.0"
