#include "mlmd/ferro/lattice.hpp"

#include <cmath>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/par/thread_pool.hpp"

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

/// F = -dE/du at one cell from its value, excitation and four neighbours.
/// The one force definition behind forces(), step() and step_langevin():
/// the accumulator starts at zero and the terms keep this order, so every
/// caller produces the same bits.
inline Vec3 cell_force(const FerroParams& p, const Vec3& ui, double wi,
                       const Vec3& nxp, const Vec3& nxm, const Vec3& nyp,
                       const Vec3& nym) {
  Vec3 fi{0.0, 0.0, 0.0};
  const double n2 = norm2(ui);
  const double aw = p.a0 * (1.0 - 2.0 * wi);

  // Local well + anisotropy + field.
  for (int c = 0; c < 3; ++c)
    fi[c] += -2.0 * aw * ui[c] - 4.0 * p.b * n2 * ui[c] + p.e_ext[c];
  fi[2] += 2.0 * p.k * ui[2];

  // Gradient term: -dE/du_i = -2J sum_nb (u_i - u_nb).
  for (int c = 0; c < 3; ++c)
    fi[c] += -2.0 * p.j * (4.0 * ui[c] - nxp[c] - nxm[c] - nyp[c] - nym[c]);

  // Chiral term derivative. E_bond(+x at i) = D * [u_i x u_{i+x}]_y
  //  = D (u_i,z u_{i+x},x - u_i,x u_{i+x},z)
  // dE/du_i = D ( u_{i+x},x z_hat - u_{i+x},z x_hat )
  // Bond (+x at i-x): E = D (u_{i-x},z u_i,x - u_{i-x},x u_i,z)
  // dE/du_i = D ( u_{i-x},z x_hat - u_{i-x},x z_hat )
  fi[0] -= p.d * (-nxp[2] + nxm[2]);
  fi[2] -= p.d * (nxp[0] - nxm[0]);
  // Bond (+y at i): E = -D [u_i x u_{i+y}]_x
  //  = -D (u_i,y u_{i+y},z - u_i,z u_{i+y},y)
  // dE/du_i = -D ( u_{i+y},z y_hat - u_{i+y},y z_hat )
  // Bond (+y at i-y): E = -D (u_{i-y},y u_i,z - u_{i-y},z u_i,y)
  // dE/du_i = -D ( u_{i-y},y z_hat - u_{i-y},z y_hat )
  fi[1] -= -p.d * (nyp[2] - nym[2]);
  fi[2] -= -p.d * (-nyp[1] + nym[1]);
  return fi;
}

/// Damped semi-implicit Euler (velocity first) over n flat doubles:
/// v <- (v + dt f / m) / (1 + gamma dt), u_next = u + dt v. A separate
/// flat loop so the divides vectorize: divpd is exact per lane and the
/// generic x86-64 target has no FMA, so the bits match the scalar loop.
void damped_update(const FerroParams& p, const double* f, const double* u,
                   double* v, double* u_next, std::size_t n) {
  const double dt = p.dt;
  const double mass = p.mass;
  const double damp = 1.0 + p.gamma * dt;
#pragma omp simd
  for (std::size_t k = 0; k < n; ++k) {
    v[k] = (v[k] + dt * f[k] / mass) / damp;
    u_next[k] = u[k] + dt * v[k];
  }
}

} // namespace

FerroLattice::FerroLattice(std::size_t lx, std::size_t ly, FerroParams p)
    : lx_(lx), ly_(ly), p_(p), u_(lx * ly, Vec3{0, 0, 0}),
      v_(lx * ly, Vec3{0, 0, 0}), w_(lx * ly, 0.0) {
  if (lx < 2 || ly < 2) throw std::invalid_argument("FerroLattice: too small");
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
      const Vec3& ui = u(x, y);
      const double n2 = norm2(ui);
      const double aw = p_.a0 * (1.0 - 2.0 * w_[index(x, y)]);
      e += aw * n2 + p_.b * n2 * n2 - p_.k * ui[2] * ui[2] - dot(p_.e_ext, ui);

      // Bonds to +x and +y neighbours (each undirected bond once).
      const Vec3& ux1 = u(xp, y);
      const Vec3& uy1 = u(x, yp);
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

void FerroLattice::row_forces(std::size_t x, Vec3* f) const {
  const std::size_t xp = x + 1 == lx_ ? 0 : x + 1;
  const std::size_t xm = x == 0 ? lx_ - 1 : x - 1;
  const Vec3* row = &u_[index(x, 0)];
  const Vec3* row_xp = &u_[index(xp, 0)];
  const Vec3* row_xm = &u_[index(xm, 0)];
  const double* w = &w_[index(x, 0)];
  for (std::size_t y = 0; y < ly_; ++y) {
    const std::size_t yp = y + 1 == ly_ ? 0 : y + 1;
    const std::size_t ym = y == 0 ? ly_ - 1 : y - 1;
    f[y] = cell_force(p_, row[y], w[y], row_xp[y], row_xm[y], row[yp], row[ym]);
  }
}

void FerroLattice::forces(std::vector<Vec3>& f) const {
  f.resize(ncells());
  flops::add(110ull * ncells());
  par::parallel_for(0, lx_, rows_per_chunk(ly_), [&](std::size_t x0, std::size_t x1) {
    for (std::size_t x = x0; x < x1; ++x) row_forces(x, &f[index(x, 0)]);
  });
}

void FerroLattice::step() {
  flops::add(110ull * ncells());
  advance(nullptr);
}

void FerroLattice::step(const std::vector<Vec3>& f) {
  if (f.size() != ncells())
    throw std::invalid_argument("FerroLattice::step: force array size");
  advance(f.data());
}

void FerroLattice::advance(const Vec3* f_ext) {
  u_next_.resize(u_.size());
  par::parallel_for(0, lx_, rows_per_chunk(ly_), [&](std::size_t x0, std::size_t x1) {
    common::Workspace& ws = common::Workspace::local();
    common::Workspace::Frame frame(ws);
    Vec3* scratch = f_ext ? nullptr : ws.get<Vec3>(ly_);
    for (std::size_t x = x0; x < x1; ++x) {
      const std::size_t i = index(x, 0);
      if (!f_ext) row_forces(x, scratch);
      const Vec3* f = f_ext ? f_ext + i : scratch;
      damped_update(p_, f[0].data(), u_[i].data(), v_[i].data(),
                    u_next_[i].data(), 3 * ly_);
    }
  });
  u_.swap(u_next_);
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
  const double c2 = std::sqrt((1.0 - c1 * c1) * kT / p_.mass);
  for (std::size_t i = 0; i < ncells(); ++i)
    for (int c = 0; c < 3; ++c) {
      v_[i][c] += dt * f[i][c] / p_.mass;
      v_[i][c] = c1 * v_[i][c] + c2 * rng.normal();
      u_[i][c] += dt * v_[i][c];
    }
}

double FerroLattice::well_amplitude() const {
  const double num = p_.k - p_.a0;
  if (num <= 0) return 0.0;
  return std::sqrt(num / (2.0 * p_.b));
}

double FerroLattice::mean_uz() const {
  double s = 0.0;
  for (const auto& ui : u_) s += std::abs(ui[2]);
  return s / static_cast<double>(ncells());
}

} // namespace mlmd::ferro
