// Tests for structural and spectroscopy post-processing: VACF, power
// spectra, vibrational DOS, absorption spectra, radial distribution
// functions.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mlmd/analysis/rdf.hpp"
#include "mlmd/analysis/spectrum.hpp"
#include "mlmd/common/rng.hpp"
#include "mlmd/qxmd/structures.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::analysis;

TEST(Vacf, ConstantVelocityGivesUnitCorrelation) {
  std::vector<std::vector<double>> frames(20, std::vector<double>{1.0, 2.0, -1.0});
  auto c = velocity_autocorrelation(frames, 10);
  ASSERT_EQ(c.size(), 11u);
  for (double v : c) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Vacf, CosineVelocityGivesCosine) {
  const double omega = 0.3;
  std::vector<std::vector<double>> frames;
  for (int t = 0; t < 400; ++t)
    frames.push_back({std::cos(omega * t), std::sin(omega * t)});
  auto c = velocity_autocorrelation(frames, 60);
  // <v(0).v(t)> for this rotating vector is exactly cos(omega t).
  for (std::size_t lag = 0; lag <= 60; lag += 10)
    EXPECT_NEAR(c[lag], std::cos(omega * static_cast<double>(lag)), 0.02) << lag;
}

TEST(Vacf, TooFewFramesThrows) {
  std::vector<std::vector<double>> frames(1, std::vector<double>{1.0});
  EXPECT_THROW(velocity_autocorrelation(frames, 5), std::invalid_argument);
}

TEST(PowerSpectrum, PeakAtSignalFrequency) {
  const double dt = 0.1, omega = 2.0;
  std::vector<double> sig;
  for (int i = 0; i < 512; ++i) sig.push_back(std::sin(omega * i * dt));
  auto s = power_spectrum(sig, dt);
  EXPECT_NEAR(dominant_frequency(s), omega, 0.1);
}

TEST(PowerSpectrum, TwoToneResolved) {
  const double dt = 0.05;
  std::vector<double> sig;
  for (int i = 0; i < 2048; ++i)
    sig.push_back(std::sin(1.0 * i * dt) + 0.5 * std::sin(4.0 * i * dt));
  auto s = power_spectrum(sig, dt);
  // Strongest peak at omega = 1; a clear secondary near omega = 4.
  EXPECT_NEAR(dominant_frequency(s), 1.0, 0.05);
  double p4 = 0, p2_5 = 0;
  for (std::size_t k = 0; k < s.omega.size(); ++k) {
    if (std::abs(s.omega[k] - 4.0) < 0.1) p4 = std::max(p4, s.power[k]);
    if (std::abs(s.omega[k] - 2.5) < 0.1) p2_5 = std::max(p2_5, s.power[k]);
  }
  EXPECT_GT(p4, 20.0 * p2_5);
}

TEST(VibrationalDos, HarmonicOscillatorPeak) {
  // Analytic harmonic motion: v(t) = cos(w0 t), w0 = 0.25 / frame.
  const double w0 = 0.25, dt_frame = 1.0;
  std::vector<std::vector<double>> frames;
  for (int t = 0; t < 600; ++t)
    frames.push_back({std::cos(w0 * t), -std::sin(w0 * t), 0.0});
  auto dos = vibrational_dos(frames, dt_frame, 200);
  EXPECT_NEAR(dominant_frequency(dos), w0, 0.03);
}

TEST(Absorption, DampedOscillatorDipolePeak) {
  // Delta-kick response of a Lorentz oscillator: d(t) = e^{-g t} sin(w0 t).
  const double dt = 0.2, w0 = 1.5, g = 0.02;
  std::vector<double> dip;
  for (int i = 0; i < 1024; ++i)
    dip.push_back(std::exp(-g * i * dt) * std::sin(w0 * i * dt));
  auto s = absorption_spectrum(dip, dt);
  EXPECT_NEAR(dominant_frequency(s), w0, 0.1);
}

TEST(Absorption, StaticDipoleGivesNoPeak) {
  std::vector<double> dip(256, 3.7);
  auto s = absorption_spectrum(dip, 0.1);
  for (double p : s.power) EXPECT_NEAR(p, 0.0, 1e-20);
}

TEST(Spectrum, OmegaAxisMonotone) {
  std::vector<double> sig(64, 0.0);
  sig[3] = 1.0;
  auto s = power_spectrum(sig, 0.5);
  for (std::size_t k = 1; k < s.omega.size(); ++k)
    EXPECT_GT(s.omega[k], s.omega[k - 1]);
}

// --- radial distribution function ------------------------------------------------

TEST(Rdf, LatticeFirstShellAtLatticeConstant) {
  auto atoms = qxmd::make_cubic_lattice(5, 5, 5, 4.0, 100.0);
  auto rdf = analysis::radial_distribution(atoms, 9.9, 99);
  EXPECT_NEAR(analysis::first_peak(rdf, 2.0), 4.0, 0.2);
}

TEST(Rdf, IdealGasIsFlat) {
  qxmd::Atoms atoms;
  atoms.resize(4000);
  atoms.box = {20.0, 20.0, 20.0};
  mlmd::Rng rng(5);
  for (auto& x : atoms.r) x = rng.uniform(0.0, 20.0);
  auto rdf = analysis::radial_distribution(atoms, 9.0, 30);
  // Away from the smallest bins (poor statistics), g ~ 1.
  for (std::size_t k = 5; k < rdf.g.size(); ++k)
    EXPECT_NEAR(rdf.g[k], 1.0, 0.15) << rdf.r[k];
}

TEST(Rdf, PartialSelectsSpecies) {
  qxmd::PerovskiteSpec spec;
  auto atoms = qxmd::make_perovskite(3, 3, 3, spec);
  // B-O first shell at a0/2; A-B first shell at sqrt(3)/2 a0.
  auto bo = analysis::radial_distribution(atoms, 0.5 * 3 * spec.a0 * 0.99, 150, 1, 2);
  EXPECT_NEAR(analysis::first_peak(bo, 1.0), 0.5 * spec.a0, 0.15);
  auto ab = analysis::radial_distribution(atoms, 0.5 * 3 * spec.a0 * 0.99, 150, 0, 1);
  EXPECT_NEAR(analysis::first_peak(ab, 1.0), 0.5 * std::sqrt(3.0) * spec.a0, 0.2);
}

TEST(Rdf, RejectsBadArguments) {
  auto atoms = qxmd::make_cubic_lattice(2, 2, 2, 4.0, 100.0);
  EXPECT_THROW(analysis::radial_distribution(atoms, 100.0, 10),
               std::invalid_argument);
  EXPECT_THROW(analysis::radial_distribution(atoms, 3.0, 0), std::invalid_argument);
}

} // namespace
