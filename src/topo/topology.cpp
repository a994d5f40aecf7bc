#include "mlmd/topo/topology.hpp"

#include <algorithm>
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
/// lattice splits into 8 row blocks, lattices of <= 2048 cells run inline.
constexpr std::size_t kCellsPerChunk = 2048;

/// Charge density of every plaquette of `lat` into q[0, ncells). Each
/// cell is a corner of four plaquettes, so it is normalised once up
/// front; both passes run on the pool by the same row blocks, and every
/// output element depends only on its own inputs, so q is bit-identical
/// for every thread count.
void density_into(const ferro::FerroLattice& lat, double min_norm, double* q) {
  const std::size_t lx = lat.lx(), ly = lat.ly();
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  Vec3* unit = ws.get<Vec3>(lx * ly);
  bool* ok = ws.get<bool>(lx * ly);
  const std::size_t rows = (kCellsPerChunk + ly - 1) / ly;
  par::parallel_for(0, lx, rows, [&](std::size_t x0, std::size_t x1) {
    for (std::size_t x = x0; x < x1; ++x)
      for (std::size_t y = 0; y < ly; ++y) {
        const std::size_t i = x * ly + y;
        unit[i] = lat.u(x, y);
        ok[i] = normalize(unit[i], min_norm);
      }
  });

  const double inv4pi = 1.0 / (4.0 * std::numbers::pi);
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

std::vector<double> charge_density(const ferro::FerroLattice& lat,
                                   double min_norm) {
  std::vector<double> q(lat.ncells());
  density_into(lat, min_norm, q.data());
  return q;
}

double topological_charge(const ferro::FerroLattice& lat, double min_norm) {
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  double* q = ws.get<double>(lat.ncells());
  density_into(lat, min_norm, q);
  // Serial and in ascending cell order, so the total has the same bits at
  // every thread count.
  double total = 0.0;
  for (std::size_t i = 0; i < lat.ncells(); ++i) total += q[i];
  return total;
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
      lat.set_u(x, y, {amp * std::sin(theta) * std::cos(phi),
                       amp * std::sin(theta) * std::sin(phi),
                       amp * std::cos(theta)});
    }
}

void init_uniform(ferro::FerroLattice& lat, double sign) {
  const double amp = lat.well_amplitude();
  for (std::size_t x = 0; x < lat.lx(); ++x)
    for (std::size_t y = 0; y < lat.ly(); ++y) lat.set_u(x, y, {0.0, 0.0, sign * amp});
  std::ranges::fill(lat.v_store(), 0.0);
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
    for (std::size_t y = 0; y < lat.ly(); ++y) lat.set_u(x, y, {0.0, 0.0, sign * amp});
  }
  std::ranges::fill(lat.v_store(), 0.0);
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
      lat.set_u(x, y, {-inplane * std::sin(phi), inplane * std::cos(phi), amp * core});
    }
}

} // namespace mlmd::topo
