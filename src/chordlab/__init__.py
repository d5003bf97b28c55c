"""Phase-space toolkit for open quantum evolution in one degree of freedom.

Centre (Wigner) and chord (characteristic) representations on conjugate
FFT grids, Gaussian and curve reference states, dissipative semiclassical
transport of chord functions with Markovian decoherence matrices, windowed
position correlations with their momentum spectra, Gaussian-smoothed
densities, and an exact number-basis oracle to check it all against.
"""

from .chordfn import ChordFunction
from .curves import (BranchData, LagrangianCurve, branches_at, curve_from_samples,
                     evolve_curve_classically, harmonic_circle,
                     pendulum_level_curve, quartic_level_curve)
from .diagnostics import ConvergenceWarning, GridDomainWarning, TruncationWarning
from .dynamics import (DecoherenceMatrix, HamiltonianModel, LindbladChannel, advect,
                       decoherence_matrix, evolve_chord_function, hamiltonians, noise_matrix,
                       positivity_time, total_gamma)
from .fock import (FockDensityMatrix, TruncationLeakError, build_linear_lindblad,
                   cat_density_matrix, chord_function_exact, chord_function_grid,
                   coherent_density_matrix, displacement_matrix, fock_density_matrix,
                   hamiltonian_matrix, hermite_functions, lindblad_evolve,
                   lowering, p_operator, position_density_matrix, pure_density,
                   q_operator, wigner_exact)
from .geometry import J_MATRIX, random_symplectic, skew
from .grids import (CenteredGrid, centre_from_chord, chord_from_centre, ft_axis,
                    reflect_values, simpson_weights)
from .gridio import load_grid_csv, save_grid_csv
from .husimi import husimi_fourier, husimi_from_lwc, husimi_from_wigner
from .lwc import (Lines, LwcSample, LwcWindow, Peak, ResolutionVerdict,
                  SpectralDensity, branch_lines, fit_peaks, local_translation_weyl,
                  lwc_coherent_closed_form, lwc_direct, lwc_from_chord, lwc_sc_markov,
                  resolution_verdict, sc_spectrum_closed_form, shear_phi_qq,
                  spectrum, suggest_xi_q_grid)
from .states import (CoherentState, coherent_chord, coherent_chord_function,
                     coherent_husimi, coherent_position_slices,
                     coherent_wavefunction, coherent_wigner, wkb_chord)

__version__ = "0.1.0"
