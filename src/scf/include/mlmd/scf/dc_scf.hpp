#pragma once
// DC-DFT-style global-local self-consistent field (paper Sec. V.A.1-2,
// Fig. 2a): local KS orbitals live on overlapping core+buffer domains;
// the global KS potential is assembled from domain core densities and
// solved with the globally-sparse multigrid; domains relax their orbitals
// against the gathered global potential by preconditioned imaginary-time
// steepest descent + orthonormalization. Iterating the two levels to
// self-consistency is the global-local SCF loop of [37].

#include <memory>
#include <vector>

#include "mlmd/grid/decomposition.hpp"
#include "mlmd/lfd/vloc.hpp"
#include "mlmd/lfd/wavefunction.hpp"
#include "mlmd/mg/multigrid.hpp"

namespace mlmd::scf {

struct ScfOptions {
  std::size_t norb = 4;       ///< local orbitals per domain
  std::size_t nfilled = 2;    ///< doubly-occupied orbitals per domain
  int local_iters = 20;       ///< orbital relaxation sweeps per outer iter
  int max_outer = 40;         ///< global-local SCF iterations
  double mix = 0.5;           ///< linear density mixing
  bool anderson = false;      ///< depth-1 Anderson (secant) acceleration
  double electronic_kt = -1.0; ///< >= 0: Fermi-Dirac smearing of per-domain
                               ///< occupations at this kT [Ha]
  double tol = 1e-5;          ///< density residual target (L2, relative)
  bool use_xc = true;
};

struct ScfResult {
  bool converged = false;
  int outer_iters = 0;
  double density_residual = 0.0;
  double total_energy = 0.0;          ///< sum of band energies (Ha)
  std::vector<double> band_energies;  ///< all domains' orbital energies
};

class DcScf {
public:
  DcScf(const grid::DcDecomposition& decomp, const std::vector<lfd::Ion>& ions,
        ScfOptions opt = {});

  ScfResult run();

  /// Converged global density (after run()).
  const std::vector<double>& global_density() const { return rho_global_; }
  /// Converged global KS potential.
  const std::vector<double>& global_potential() const { return v_global_; }
  /// Domain orbitals (after run()).
  const lfd::SoAWave<double>& domain_wave(int a) const { return waves_.at(a); }

private:
  void build_global_potential();
  double relax_domain(int a); ///< returns sum of band energies of domain a

  grid::DcDecomposition decomp_;
  std::vector<lfd::Ion> ions_;
  ScfOptions opt_;
  mg::Multigrid mg_;
  std::vector<lfd::SoAWave<double>> waves_;
  std::vector<double> rho_global_, v_global_, v_ion_global_, v_hartree_;
  std::vector<std::vector<double>> band_energies_;
};

} // namespace mlmd::scf
