// Example: a guided tour of the scheme machinery *below* the Simulation
// facade — the level a downstream user works at when embedding the library
// in their own event loop. We hand-drive a server scheme and one client
// through a disconnection/salvage episode, printing each protocol step.
//
//   ./scheme_tour

#include <cstdio>

#include "core/aaw_scheme.hpp"
#include "db/update_history.hpp"
#include "report/ts_report.hpp"
#include "schemes/scheme.hpp"

int main() {
  using namespace mci;

  report::SizeModel sizes;
  sizes.numItems = 1000;
  sizes.numClients = 100;

  db::UpdateHistory history(sizes.numItems);
  core::AawServerScheme server(history, sizes, /*L=*/20.0, /*w=*/10);
  core::AawClientScheme clientAlgo;
  // Clock-free: every time the client state holds arrives with a report,
  // a fetched copy or a check acknowledgement.
  schemes::ClientContext client(/*id=*/0, /*cacheCapacity=*/32, sizes,
                                /*sink=*/nullptr);

  auto cacheItem = [&](db::ItemId item, double fetchedAt) {
    cache::Entry e;
    e.item = item;
    e.version = 1;
    e.refTime = fetchedAt;
    client.cache().insert(e);
  };
  auto show = [&](const char* when) {
    std::printf("%-34s cache=%zu suspects=%zu pending=%s\n", when,
                client.cache().size(), client.cache().suspectCount(),
                client.salvagePending() ? "yes" : "no");
  };

  std::printf("AAW protocol walkthrough (N=%zu, L=20s, w=10)\n\n",
              sizes.numItems);

  // t=100: the client has heard every report so far and caches 3 items.
  cacheItem(1, 90.0);
  cacheItem(2, 95.0);
  cacheItem(3, 98.0);
  client.setLastHeard(100.0);
  show("t=100  3 items cached");

  // The client dozes; meanwhile the server applies updates.
  history.record(2, 180.0);   // one cached item goes stale
  history.record(40, 260.0);  // unrelated churn
  history.record(41, 300.0);

  // t=500: the client wakes and hears a regular IR(w) covering (300, 500].
  auto r1 = server.buildReport(500.0);
  auto out = clientAlgo.onReport(*r1, client);
  show("t=500  IR(w) misses our gap");
  std::printf("       -> client uplinks Tlb=%.0f (%0.f bits, kind %s)\n",
              out.check.tlb, out.check.sizeBits,
              out.check.entries.empty() ? "timestamp only" : "id list");

  // The Tlb reaches the server; the next report adapts.
  server.onCheckMessage(out.check, 505.0);
  clientAlgo.onCheckDelivered(client, 505.0);
  auto r2 = server.buildReport(520.0);
  std::printf("       server adapts: next report is %s (%.0f bits vs %.0f "
              "for BS)\n",
              reportKindName(r2->kind), r2->sizeBits, sizes.bsReportBits());

  clientAlgo.onReport(*r2, client);
  show("t=520  helping report arrives");
  std::printf("       item 2 (updated at t=180) was invalidated; 1 and 3 "
              "salvaged\n\n");

  const auto& decisions = server.decisions();
  std::printf("server decisions: IR(w)=%llu IR(w')=%llu IR(BS)=%llu "
              "Tlbs=%llu declined=%llu\n",
              static_cast<unsigned long long>(decisions.tsReports),
              static_cast<unsigned long long>(decisions.extendedReports),
              static_cast<unsigned long long>(decisions.bsReports),
              static_cast<unsigned long long>(decisions.tlbsReceived),
              static_cast<unsigned long long>(decisions.tlbsDeclined));
  return client.cache().size() == 2 ? 0 : 1;
}
