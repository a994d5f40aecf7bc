#include "mlmd/ferro/lattice.hpp"

#include <cmath>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/simd/simd.hpp"
#include "mlmd/simd/ukern_generic.hpp"

namespace mlmd::ferro {
namespace {

inline Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
          a[0] * b[1] - a[1] * b[0]};
}
inline double dot(const Vec3& a, const Vec3& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}
inline double norm2(const Vec3& a) { return dot(a, a); }

/// Cells per pool chunk in forces() and step(): one chunk is ~20-60 us of
/// force + update work, so a 128^2 lattice splits into 8 chunks and
/// lattices of <= 2048 cells run as one inline chunk.
constexpr std::size_t kCellsPerChunk = 2048;

std::size_t rows_per_chunk(std::size_t ly) {
  return (kCellsPerChunk + ly - 1) / ly;
}

simd::FerroCoeffs coeffs(const FerroParams& p) {
  return {.a0 = p.a0, .b = p.b, .k = p.k, .j = p.j, .d = p.d,
          .e = {p.e_ext[0], p.e_ext[1], p.e_ext[2]},
          .dt = p.dt, .damp = 1.0 + p.gamma * p.dt};
}

/// Plane store (x, y and z planes of n values each) <-> one Vec3 per cell.
std::vector<Vec3> interleave(const std::vector<double>& planes) {
  const std::size_t n = planes.size() / 3;
  std::vector<Vec3> cells(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < 3; ++c) cells[i][c] = planes[c * n + i];
  return cells;
}

void deinterleave(const std::vector<Vec3>& cells, std::vector<double>& planes,
                  const char* what) {
  const std::size_t n = planes.size() / 3;
  if (cells.size() != n) throw std::invalid_argument(what);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < 3; ++c) planes[c * n + i] = cells[i][c];
}

} // namespace

FerroLattice::FerroLattice(std::size_t lx, std::size_t ly, FerroParams p)
    : lx_(lx), ly_(ly), p_(p), u_(3 * lx * ly, 0.0), v_(3 * lx * ly, 0.0),
      w_(lx * ly, 0.0) {
  if (lx < 2 || ly < 2) throw std::invalid_argument("FerroLattice: too small");
}

void FerroLattice::set_u(std::size_t x, std::size_t y, const Vec3& a) {
  const std::size_t i = index(x, y), n = ncells();
  for (std::size_t c = 0; c < 3; ++c) u_[c * n + i] = a[c];
}

std::vector<Vec3> FerroLattice::u_cells() const { return interleave(u_); }
std::vector<Vec3> FerroLattice::v_cells() const { return interleave(v_); }

void FerroLattice::set_u_cells(const std::vector<Vec3>& cells) {
  deinterleave(cells, u_, "FerroLattice::set_u_cells: size");
}

void FerroLattice::set_v_cells(const std::vector<Vec3>& cells) {
  deinterleave(cells, v_, "FerroLattice::set_v_cells: size");
}

void FerroLattice::set_excitation(const std::vector<double>& w) {
  if (w.size() != w_.size())
    throw std::invalid_argument("FerroLattice::set_excitation: size");
  w_ = w;
}

void FerroLattice::set_uniform_excitation(double w) {
  w_.assign(w_.size(), w);
}

double FerroLattice::energy() const {
  flops::add(60ull * ncells());
  double e = 0.0;
  for (std::size_t x = 0; x < lx_; ++x) {
    const std::size_t xp = (x + 1) % lx_;
    for (std::size_t y = 0; y < ly_; ++y) {
      const std::size_t yp = (y + 1) % ly_;
      const Vec3 ui = u(x, y);
      const double n2 = norm2(ui);
      const double aw = p_.a0 * (1.0 - 2.0 * w_[index(x, y)]);
      e += aw * n2 + p_.b * n2 * n2 - p_.k * ui[2] * ui[2] - dot(p_.e_ext, ui);

      // Bonds to +x and +y neighbours (each undirected bond once).
      const Vec3 ux1 = u(xp, y);
      const Vec3 uy1 = u(x, yp);
      Vec3 dx{ui[0] - ux1[0], ui[1] - ux1[1], ui[2] - ux1[2]};
      Vec3 dy{ui[0] - uy1[0], ui[1] - uy1[1], ui[2] - uy1[2]};
      e += p_.j * (norm2(dx) + norm2(dy));

      // Chiral term: for bond along +x, (z_hat x e_x) = y_hat, so the
      // contribution is y_hat . (u_i x u_j); along +y it is -x_hat . (...).
      const Vec3 cx_ = cross(ui, ux1);
      const Vec3 cy_ = cross(ui, uy1);
      e += p_.d * (cx_[1] - cy_[0]);
    }
  }
  return e;
}

void FerroLattice::forces(std::vector<Vec3>& f) const {
  f.resize(ncells());
  flops::add(110ull * ncells());
  const simd::FerroCoeffs c = coeffs(p_);
  par::parallel_for(0, lx_, rows_per_chunk(ly_), [&](std::size_t x0, std::size_t x1) {
    for (std::size_t x = x0; x < x1; ++x) {
      const std::size_t xp = x + 1 == lx_ ? 0 : x + 1;
      const std::size_t xm = x == 0 ? lx_ - 1 : x - 1;
      for (std::size_t y = 0; y < ly_; ++y) {
        const std::size_t yp = y + 1 == ly_ ? 0 : y + 1;
        const std::size_t ym = y == 0 ? ly_ - 1 : y - 1;
        f[index(x, y)] = simd::generic::ferro_force(
            c, u(x, y), w_[index(x, y)], u(xp, y), u(xm, y), u(x, yp), u(x, ym));
      }
    }
  });
}

void FerroLattice::step() {
  flops::add(110ull * ncells());
  const simd::FerroRowFn row = simd::kernels().ferro_row;
  const simd::FerroCoeffs c = coeffs(p_);
  const std::size_t n = ncells();
  u_next_.resize(u_.size());
  par::parallel_for(0, lx_, rows_per_chunk(ly_), [&](std::size_t x0, std::size_t x1) {
    for (std::size_t x = x0; x < x1; ++x) {
      const std::size_t xp = x + 1 == lx_ ? 0 : x + 1;
      const std::size_t xm = x == 0 ? lx_ - 1 : x - 1;
      const std::size_t i = index(x, 0);
      row(c, &u_[i], &u_[index(xp, 0)], &u_[index(xm, 0)], &w_[i], &v_[i],
          &u_next_[i], n, ly_);
    }
  });
  u_.swap(u_next_);
}

void FerroLattice::step(const std::vector<Vec3>& f) {
  if (f.size() != ncells())
    throw std::invalid_argument("FerroLattice::step: force array size");
  const simd::FerroCoeffs c = coeffs(p_);
  const std::size_t n = ncells();
  par::parallel_for(0, lx_, rows_per_chunk(ly_), [&](std::size_t x0, std::size_t x1) {
    for (std::size_t k = 0; k < 3; ++k)
      for (std::size_t i = index(x0, 0); i < index(x1, 0); ++i)
        u_[k * n + i] = simd::generic::ferro_update(c, f[i][k], u_[k * n + i],
                                                    v_[k * n + i]);
  });
}

void FerroLattice::step_langevin(double kT, Rng& rng) {
  std::vector<Vec3> f;
  forces(f);
  step_langevin(kT, rng, f);
}

void FerroLattice::step_langevin(double kT, Rng& rng,
                                 const std::vector<Vec3>& f) {
  if (f.size() != ncells())
    throw std::invalid_argument(
        "FerroLattice::step_langevin: force array size");
  const double dt = p_.dt;
  const double c1 = std::exp(-p_.gamma * dt);
  const double c2 = std::sqrt((1.0 - c1 * c1) * kT);
  const std::size_t n = ncells();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < 3; ++c) {
      double& v = v_[c * n + i];
      v += dt * f[i][c];
      v = c1 * v + c2 * rng.normal();
      u_[c * n + i] += dt * v;
    }
}

double FerroLattice::well_amplitude() const {
  const double num = p_.k - p_.a0;
  if (num <= 0) return 0.0;
  return std::sqrt(num / (2.0 * p_.b));
}

double FerroLattice::mean_uz() const {
  const std::size_t n = ncells();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::abs(u_[2 * n + i]);
  return s / static_cast<double>(n);
}

} // namespace mlmd::ferro
