#include "mlmd/topo/topology.hpp"

#include <cmath>
#include <numbers>

#include "mlmd/common/workspace.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::topo {
namespace {

inline double dot(const Vec3& a, const Vec3& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}
inline Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
          a[0] * b[1] - a[1] * b[0]};
}
inline double norm(const Vec3& a) { return std::sqrt(dot(a, a)); }

inline bool normalize(Vec3& a, double min_norm) {
  const double n = norm(a);
  if (n < min_norm) return false;
  a = {a[0] / n, a[1] / n, a[2] / n};
  return true;
}

/// Cells per pool chunk in both density passes (the ferro grain): a 128^2
/// lattice splits into 8 chunks, lattices of <= 2048 cells run inline.
constexpr std::size_t kCellsPerChunk = 2048;

/// Charge density of every plaquette into q[0, lx*ly). Each cell is a
/// corner of four plaquettes, so it is normalised once up front; both
/// passes run on the pool, and every output element depends only on its
/// own inputs, so q is bit-identical for every thread count.
void density_into(const Vec3* u, std::size_t lx, std::size_t ly,
                  double min_norm, double* q) {
  const std::size_t n = lx * ly;
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  Vec3* unit = ws.get<Vec3>(n);
  bool* ok = ws.get<bool>(n);
  par::parallel_for(0, n, kCellsPerChunk, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      unit[i] = u[i];
      ok[i] = normalize(unit[i], min_norm);
    }
  });

  const double inv4pi = 1.0 / (4.0 * std::numbers::pi);
  const std::size_t rows = (kCellsPerChunk + ly - 1) / ly;
  par::parallel_for(0, lx, rows, [&](std::size_t x0, std::size_t x1) {
    for (std::size_t x = x0; x < x1; ++x) {
      const std::size_t xp = x + 1 == lx ? 0 : x + 1;
      for (std::size_t y = 0; y < ly; ++y) {
        const std::size_t yp = y + 1 == ly ? 0 : y + 1;
        const std::size_t i00 = x * ly + y, i10 = xp * ly + y;
        const std::size_t i01 = x * ly + yp, i11 = xp * ly + yp;
        // Cells with |u| < min_norm leave their plaquettes at zero. Two
        // triangles per plaquette, consistently oriented.
        q[i00] = ok[i00] && ok[i10] && ok[i01] && ok[i11]
                     ? inv4pi * (solid_angle(unit[i00], unit[i10], unit[i11]) +
                                 solid_angle(unit[i00], unit[i11], unit[i01]))
                     : 0.0;
      }
    }
  });
}

} // namespace

double solid_angle(const Vec3& n1, const Vec3& n2, const Vec3& n3) {
  const double num = dot(n1, cross(n2, n3));
  const double den = 1.0 + dot(n1, n2) + dot(n2, n3) + dot(n3, n1);
  return 2.0 * std::atan2(num, den);
}

std::vector<double> charge_density(const std::vector<Vec3>& u, std::size_t lx,
                                   std::size_t ly, double min_norm) {
  std::vector<double> q(lx * ly);
  density_into(u.data(), lx, ly, min_norm, q.data());
  return q;
}

double topological_charge(const std::vector<Vec3>& u, std::size_t lx, std::size_t ly,
                          double min_norm) {
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  double* q = ws.get<double>(lx * ly);
  density_into(u.data(), lx, ly, min_norm, q);
  // Serial and in ascending cell order, so the total has the same bits at
  // every thread count.
  double total = 0.0;
  for (std::size_t i = 0; i < lx * ly; ++i) total += q[i];
  return total;
}

double topological_charge(const ferro::FerroLattice& lat, double min_norm) {
  return topological_charge(lat.field(), lat.lx(), lat.ly(), min_norm);
}

void paint_skyrmion(ferro::FerroLattice& lat, double cx, double cy, double radius,
                    double amp, int charge_sign) {
  const auto lx = static_cast<double>(lat.lx());
  const auto ly = static_cast<double>(lat.ly());
  for (std::size_t x = 0; x < lat.lx(); ++x)
    for (std::size_t y = 0; y < lat.ly(); ++y) {
      // Minimum-image displacement from the skyrmion centre.
      double dx = static_cast<double>(x) - cx;
      double dy = static_cast<double>(y) - cy;
      dx -= lx * std::round(dx / lx);
      dy -= ly * std::round(dy / ly);
      const double r = std::sqrt(dx * dx + dy * dy);
      if (r > 2.0 * radius) continue; // leave the background untouched
      // Neel profile: theta goes pi (core, u_z = -amp) -> 0 (outside).
      const double theta = std::numbers::pi * std::exp(-r / radius);
      // charge_sign = -1 mirrors the azimuthal winding (phi -> -phi),
      // which reverses the degree of the map and hence the charge sign.
      const double phi = std::atan2(dy, dx) * static_cast<double>(charge_sign);
      Vec3& ui = lat.u(x, y);
      ui[0] = amp * std::sin(theta) * std::cos(phi);
      ui[1] = amp * std::sin(theta) * std::sin(phi);
      ui[2] = amp * std::cos(theta);
    }
}

void init_uniform(ferro::FerroLattice& lat, double sign) {
  const double amp = lat.well_amplitude();
  for (auto& ui : lat.field()) ui = {0.0, 0.0, sign * amp};
  for (auto& vi : lat.velocity()) vi = {0.0, 0.0, 0.0};
}

void init_skyrmion_superlattice(ferro::FerroLattice& lat, std::size_t nx,
                                std::size_t ny, double radius_fraction) {
  init_uniform(lat, +1.0);
  const double amp = lat.well_amplitude();
  const double tile_x = static_cast<double>(lat.lx()) / static_cast<double>(nx);
  const double tile_y = static_cast<double>(lat.ly()) / static_cast<double>(ny);
  const double radius = radius_fraction * std::min(tile_x, tile_y);
  for (std::size_t ix = 0; ix < nx; ++ix)
    for (std::size_t iy = 0; iy < ny; ++iy)
      paint_skyrmion(lat, (static_cast<double>(ix) + 0.5) * tile_x,
                     (static_cast<double>(iy) + 0.5) * tile_y, radius, amp, +1);
}

void init_stripe_domains(ferro::FerroLattice& lat, std::size_t period) {
  const double amp = lat.well_amplitude();
  for (std::size_t x = 0; x < lat.lx(); ++x) {
    const double sign = (x / period) % 2 == 0 ? 1.0 : -1.0;
    for (std::size_t y = 0; y < lat.ly(); ++y) lat.u(x, y) = {0.0, 0.0, sign * amp};
  }
  for (auto& vi : lat.velocity()) vi = {0.0, 0.0, 0.0};
}

void paint_vortex(ferro::FerroLattice& lat, double cx, double cy, double amp,
                  int winding, double core_radius) {
  const auto lx = static_cast<double>(lat.lx());
  const auto ly = static_cast<double>(lat.ly());
  for (std::size_t x = 0; x < lat.lx(); ++x)
    for (std::size_t y = 0; y < lat.ly(); ++y) {
      double dx = static_cast<double>(x) - cx;
      double dy = static_cast<double>(y) - cy;
      dx -= lx * std::round(dx / lx);
      dy -= ly * std::round(dy / ly);
      const double r = std::sqrt(dx * dx + dy * dy);
      const double phi = std::atan2(dy, dx) * winding;
      // Tangential in-plane winding; the core escapes into +z to avoid a
      // singular zero.
      const double core = std::exp(-r / core_radius);
      const double inplane = amp * (1.0 - core);
      Vec3& u = lat.u(x, y);
      u[0] = -inplane * std::sin(phi);
      u[1] = inplane * std::cos(phi);
      u[2] = amp * core;
    }
}

double in_plane_winding(const ferro::FerroLattice& lat, double cx, double cy,
                        double radius) {
  // Walk a discrete circle and accumulate the angle increments of
  // (u_x, u_y), unwrapped to (-pi, pi].
  const int nsamples = 64;
  double total = 0.0;
  double prev_angle = 0.0;
  bool have_prev = false;
  for (int k = 0; k <= nsamples; ++k) {
    const double t = 2.0 * std::numbers::pi * k / nsamples;
    const auto x = static_cast<std::size_t>(
        std::llround(cx + radius * std::cos(t)) % static_cast<long long>(lat.lx()));
    const auto y = static_cast<std::size_t>(
        std::llround(cy + radius * std::sin(t)) % static_cast<long long>(lat.ly()));
    const Vec3& u = lat.u(x % lat.lx(), y % lat.ly());
    const double ang = std::atan2(u[1], u[0]);
    if (have_prev) {
      double d = ang - prev_angle;
      while (d > std::numbers::pi) d -= 2.0 * std::numbers::pi;
      while (d < -std::numbers::pi) d += 2.0 * std::numbers::pi;
      total += d;
    }
    prev_angle = ang;
    have_prev = true;
  }
  return total / (2.0 * std::numbers::pi);
}

std::size_t count_charged_plaquettes(const ferro::FerroLattice& lat,
                                     double threshold) {
  auto q = charge_density(lat.field(), lat.lx(), lat.ly());
  std::size_t c = 0;
  for (double v : q)
    if (std::abs(v) > threshold) ++c;
  return c;
}

} // namespace mlmd::topo
