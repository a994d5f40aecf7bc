#include "mlmd/qxmd/structures.hpp"

namespace mlmd::qxmd {

Atoms make_perovskite(std::size_t nx, std::size_t ny, std::size_t nz,
                      const PerovskiteSpec& spec) {
  Atoms atoms;
  atoms.resize(5 * nx * ny * nz);
  atoms.box = {static_cast<double>(nx) * spec.a0, static_cast<double>(ny) * spec.a0,
               static_cast<double>(nz) * spec.a0};
  std::size_t i = 0;
  for (std::size_t cx = 0; cx < nx; ++cx)
    for (std::size_t cy = 0; cy < ny; ++cy)
      for (std::size_t cz = 0; cz < nz; ++cz) {
        const double ox = static_cast<double>(cx) * spec.a0;
        const double oy = static_cast<double>(cy) * spec.a0;
        const double oz = static_cast<double>(cz) * spec.a0;
        auto put = [&](double fx, double fy, double fz, int type, double mass) {
          atoms.pos(i)[0] = ox + fx * spec.a0;
          atoms.pos(i)[1] = oy + fy * spec.a0;
          atoms.pos(i)[2] = oz + fz * spec.a0;
          atoms.type[i] = type;
          atoms.mass[i] = mass;
          ++i;
        };
        put(0.0, 0.0, 0.0, 0, spec.mass_a);   // A corner
        put(0.5, 0.5, 0.5, 1, spec.mass_b);   // B centre
        put(0.5, 0.5, 0.0, 2, spec.mass_o);   // O face (z)
        put(0.5, 0.0, 0.5, 2, spec.mass_o);   // O face (y)
        put(0.0, 0.5, 0.5, 2, spec.mass_o);   // O face (x)
      }
  return atoms;
}

std::size_t count_type(const Atoms& atoms, int type) {
  std::size_t c = 0;
  for (int t : atoms.type)
    if (t == type) ++c;
  return c;
}

} // namespace mlmd::qxmd
