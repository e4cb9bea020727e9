#include "core/config.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mci::core {

std::size_t SimConfig::cacheCapacity() const {
  const auto cap =
      static_cast<std::size_t>(clientBufferFrac * static_cast<double>(dbSize));
  return std::max<std::size_t>(cap, 1);
}

report::SizeModel SimConfig::sizeModel() const {
  report::SizeModel m;
  m.numItems = dbSize;
  m.numClients = numClients;
  m.timestampBits = timestampBits;
  m.dataItemBytes = dataItemBytes;
  m.controlMessageBytes = controlMessageBytes;
  return m;
}

workload::AccessPattern SimConfig::queryPattern() const {
  return workload == WorkloadKind::kHotCold
             ? workload::AccessPattern::hotCold(dbSize, hotQuery)
             : workload::AccessPattern::uniform(dbSize);
}

workload::QueryGenerator::Params SimConfig::queryParams() const {
  workload::QueryGenerator::Params p;
  p.meanThinkTime = meanThinkTime;
  p.meanItemsPerQuery = meanItemsPerQuery;
  return p;
}

workload::Disconnector::Params SimConfig::disconnectParams() const {
  workload::Disconnector::Params p;
  p.model = disconnectModel;
  p.probability = disconnectProb;
  p.meanDuration = meanDisconnectTime;
  return p;
}

void SimConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("SimConfig: " + what);
  };
  auto finitePositive = [](double x) { return std::isfinite(x) && x > 0; };
  if (simTime <= 0) fail("simTime must be positive");
  if (warmupTime < 0 || warmupTime >= simTime)
    fail("warmupTime must be in [0, simTime)");
  if (numClients == 0) fail("numClients must be >= 1");
  if (dbSize < 2) fail("dbSize must be >= 2");
  if (!finitePositive(broadcastPeriod))
    fail("broadcastPeriod must be finite, > 0");
  if (downlinkBps <= 0 || uplinkBps <= 0) fail("bandwidths must be positive");
  if (clientBufferFrac <= 0 || clientBufferFrac > 1)
    fail("clientBufferFrac must be in (0,1]");
  if (!finitePositive(meanThinkTime)) fail("meanThinkTime must be finite, > 0");
  if (meanItemsPerQuery < 1) fail("meanItemsPerQuery must be >= 1");
  if (meanItemsPerUpdate < 1) fail("meanItemsPerUpdate must be >= 1");
  if (!finitePositive(meanUpdateInterarrival))
    fail("meanUpdateInterarrival must be finite, > 0");
  if (!finitePositive(meanDisconnectTime))
    fail("meanDisconnectTime must be finite, > 0");
  if (disconnectProb < 0 || disconnectProb > 1)
    fail("disconnectProb must be in [0,1]");
  if (clientHeterogeneity < 0 || clientHeterogeneity >= 1)
    fail("clientHeterogeneity must be in [0,1)");
  if (windowIntervals < 1) fail("windowIntervals must be >= 1");
  if (workload == WorkloadKind::kHotCold) {
    if (hotQuery.hotLo >= hotQuery.hotHi) fail("hot query bounds empty");
    if (hotQuery.hotHi > dbSize) fail("hot query bounds exceed database");
    if (hotQuery.hotHi - hotQuery.hotLo >= dbSize)
      fail("cold query region empty");
  }
  if (hotColdUpdates) {
    if (hotUpdate.hotLo >= hotUpdate.hotHi) fail("hot update bounds empty");
    if (hotUpdate.hotHi > dbSize) fail("hot update bounds exceed database");
  }
  for (double bps : dataChannelBps) {
    if (bps <= 0) fail("data channel bandwidths must be positive");
  }
  if (scheme == schemes::SchemeKind::kDts) {
    if (dtsMinWindow < 1) fail("dtsMinWindow must be >= 1");
    if (dtsMaxWindow < dtsMinWindow) fail("dtsMaxWindow < dtsMinWindow");
    if (dtsAlpha <= 0) fail("dtsAlpha must be positive");
  }
  if (scheme == schemes::SchemeKind::kGcore && gcoreGroupSize == 0) {
    fail("gcoreGroupSize must be >= 1");
  }
  if (scheme == schemes::SchemeKind::kSig) {
    if (sigSubsets == 0) fail("sigSubsets must be >= 1");
    if (sigPerItem < 1) fail("sigPerItem must be >= 1");
  }
  if (timestampBits < 1 || timestampBits > 64) fail("timestampBits out of range");
}

std::string SimConfig::describe() const {
  std::ostringstream os;
  os << schemes::schemeName(scheme) << " " << workloadName(workload)
     << " N=" << dbSize << " C=" << numClients << " L=" << broadcastPeriod
     << "s w=" << windowIntervals << " buf=" << clientBufferFrac * 100 << "%"
     << " p=" << disconnectProb << " disc=" << meanDisconnectTime << "s"
     << " up=" << uplinkBps << "bps down=" << downlinkBps << "bps"
     << " T=" << simTime << "s seed=" << seed;
  return os.str();
}

}  // namespace mci::core
