/**
 * @file
 * Deterministic checkpoint/restore for the sharded platform.
 *
 * capture() serializes a ShardedPlatform paused at a window barrier —
 * event arena, orchestrator records, RNG stream positions, lane script
 * cursors, the shared committed capacity table, and (when attached)
 * the per-lane observability slots — into an eaao-snap v1 image
 * (snap/format.hpp). restore() loads such an image into a platform
 * built with the *same configuration* (shards/threads may differ: lane
 * grouping is output-invariant), after which resumeRun() continues the
 * run and produces a canonical log, merged metrics and Chrome trace
 * byte-identical to the uninterrupted run.
 *
 * The capture point is the *pre-fold* barrier state (after
 * ShardedPlatform::advanceWindow(), before completeWindow()), so the
 * lanes' not-yet-folded capacity deltas are live data inside the
 * image; restore re-folds them first. See docs/checkpoint.md.
 */

#ifndef EAAO_SNAP_SNAPSHOTTER_HPP
#define EAAO_SNAP_SNAPSHOTTER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "faas/sharded.hpp"
#include "obs/export.hpp"

namespace eaao::snap {

class SectionReader;
class SectionWriter;
class SnapshotReader;

class Snapshotter
{
  public:
    /**
     * Serialize @p platform into a snapshot image. The platform must
     * be paused (between beginRun()/advanceWindow() steps or not
     * running); every pending event must carry an EventTag (all
     * orchestrator-scheduled events do).
     */
    static std::vector<std::uint8_t>
    capture(const faas::ShardedPlatform &platform);

    /**
     * Load @p image into @p platform, which must have been constructed
     * with the same configuration the capture platform used (checked
     * via an embedded config fingerprint; the shards/threads grouping
     * knobs are excluded) and the same observability attachment.
     * On failure returns false with a one-line reason in @p error; the
     * platform contents are unspecified then (drivers treat a failed
     * restore as fatal).
     */
    static bool restore(const std::vector<std::uint8_t> &image,
                        faas::ShardedPlatform &platform, std::string &error);

    /**
     * Fast path for forking many runs from one in-memory image: the
     * caller parses (and thereby checksums) the image once with
     * SnapshotReader::parse and restores from the reader repeatedly.
     * The image backing @p reader must still be alive.
     */
    static bool restore(const SnapshotReader &reader,
                        faas::ShardedPlatform &platform, std::string &error);

    /** Write @p image to @p path (binary). */
    static bool writeFile(const std::string &path,
                          const std::vector<std::uint8_t> &image,
                          std::string &error);

    /** Read a snapshot image from @p path. */
    static bool readFile(const std::string &path,
                         std::vector<std::uint8_t> &image,
                         std::string &error);

    /**
     * Order-sensitive hash of every configuration field that shapes
     * the simulation (profile, orchestrator, tsc/timing noise,
     * pricing, seed/epoch/window/max_lanes). The shards/threads
     * grouping knobs are deliberately excluded: a snapshot captured at
     * one grouping restores at any other.
     */
    static std::uint64_t configFingerprint(const faas::ShardedConfig &cfg);

  private:
    static void captureLane(const faas::ShardedPlatform::Lane &lane,
                            SectionWriter &out);

    /**
     * @p omit_one_vcpus_delta non-null arms planted fault 5 (see
     * OrchestratorConfig::fault_injection): the first restored lane
     * with a non-empty capacity delta gets the vcpus values of its
     * delta entries zeroed, after which the flag is cleared.
     */
    static bool restoreLane(SectionReader &in,
                            faas::ShardedPlatform::Lane &lane,
                            bool *omit_one_vcpus_delta, std::string &error);

    /**
     * Refuse account/service map entries that point past their lane's
     * tables, and ops that do not resolve onto the lane holding them.
     */
    static bool checkMaps(
        const faas::ShardedPlatform &platform,
        const std::vector<std::pair<std::uint32_t, faas::AccountId>>
            &acct_map,
        const std::vector<std::pair<std::uint32_t, faas::ServiceId>>
            &svc_map,
        std::string &error);

    static void captureObs(const obs::TrialSet &set, SectionWriter &out);
    static bool restoreObs(SectionReader &in, obs::TrialSet &set,
                           std::string &error);
};

} // namespace eaao::snap

#endif // EAAO_SNAP_SNAPSHOTTER_HPP
