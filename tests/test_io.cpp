// Checkpoint/restart round-trip tests for wavefunctions and lattices.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "mlmd/ferro/io.hpp"
#include "mlmd/lfd/io.hpp"

namespace {

using namespace mlmd;

std::string tmp_path(const char* name) { return ::testing::TempDir() + name; }

TEST(WaveIo, RoundTripDouble) {
  grid::Grid3 g{6, 4, 8, 0.5, 0.6, 0.7};
  lfd::SoAWave<double> w(g, 3);
  lfd::init_plane_waves(w);
  const auto path = tmp_path("wave_d.bin");
  lfd::save_wave(w, path);
  auto r = lfd::load_wave<double>(path);
  EXPECT_EQ(r.grid.nx, g.nx);
  EXPECT_DOUBLE_EQ(r.grid.hy, g.hy);
  EXPECT_EQ(r.norb, 3u);
  EXPECT_EQ(r.psi, w.psi);
  std::remove(path.c_str());
}

TEST(WaveIo, RoundTripFloat) {
  grid::Grid3 g{4, 4, 4, 0.5, 0.5, 0.5};
  lfd::SoAWave<float> w(g, 2);
  lfd::init_plane_waves(w);
  const auto path = tmp_path("wave_f.bin");
  lfd::save_wave(w, path);
  auto r = lfd::load_wave<float>(path);
  EXPECT_EQ(r.psi, w.psi);
  std::remove(path.c_str());
}

TEST(WaveIo, PrecisionMismatchThrows) {
  grid::Grid3 g{4, 4, 4, 0.5, 0.5, 0.5};
  lfd::SoAWave<float> w(g, 2);
  const auto path = tmp_path("wave_mismatch.bin");
  lfd::save_wave(w, path);
  EXPECT_THROW(lfd::load_wave<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(WaveIo, MissingFileThrows) {
  EXPECT_THROW(lfd::load_wave<double>("/nonexistent/wave.bin"), std::runtime_error);
}

TEST(WaveIo, BadMagicThrows) {
  const auto path = tmp_path("wave_bad.bin");
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  std::fputs("not a wavefunction checkpoint at all, padding padding", fp);
  std::fclose(fp);
  EXPECT_THROW(lfd::load_wave<double>(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(LatticeIo, RoundTripIncludingStateAndParams) {
  ferro::FerroParams p;
  p.a0 = -0.7;
  p.d = 0.33;
  ferro::FerroLattice lat(6, 5, p);
  mlmd::Rng rng(9);
  for (auto& u : lat.field()) u = {rng.normal(), rng.normal(), rng.normal()};
  for (auto& v : lat.velocity()) v = {rng.normal(), 0.0, rng.normal()};
  std::vector<double> w(lat.ncells());
  for (auto& x : w) x = rng.uniform();
  lat.set_excitation(w);

  const auto path = tmp_path("lattice.bin");
  ferro::save_lattice(lat, path);
  auto r = ferro::load_lattice(path);
  EXPECT_EQ(r.lx(), 6u);
  EXPECT_EQ(r.ly(), 5u);
  EXPECT_DOUBLE_EQ(r.params().a0, -0.7);
  EXPECT_DOUBLE_EQ(r.params().d, 0.33);
  for (std::size_t i = 0; i < lat.ncells(); ++i) {
    EXPECT_EQ(r.field()[i], lat.field()[i]);
    EXPECT_EQ(r.velocity()[i], lat.velocity()[i]);
    EXPECT_DOUBLE_EQ(r.excitation()[i], lat.excitation()[i]);
  }
  // Restart determinism: both lattices step identically.
  lat.step();
  r.step();
  EXPECT_EQ(r.field()[3], lat.field()[3]);
  std::remove(path.c_str());
}

TEST(LatticeIo, MissingFileThrows) {
  EXPECT_THROW(ferro::load_lattice("/nonexistent/lat.bin"), std::runtime_error);
}

} // namespace
