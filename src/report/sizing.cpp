#include "report/sizing.hpp"

#include <bit>

#include "core/check.hpp"

namespace mci::report {
namespace {

int ceilLog2(std::size_t n) {
  MCI_CHECK(n >= 1);
  if (n == 1) return 1;  // still need one bit to name the only element
  return std::bit_width(n - 1);
}

}  // namespace

int SizeModel::itemIdBits() const { return ceilLog2(numItems); }
int SizeModel::clientIdBits() const { return ceilLog2(numClients); }

net::Bits SizeModel::tsReportBits(std::size_t entries) const {
  const double perEntry = itemIdBits() + timestampBits;
  return static_cast<double>(timestampBits) /* current time T */ +
         static_cast<double>(entries) * perEntry;
}

net::Bits SizeModel::extendedReportBits(std::size_t entries) const {
  // The dummy (dummyId, Tlb) record costs exactly one more entry.
  return tsReportBits(entries + 1);
}

net::Bits SizeModel::bsReportBits() const {
  // |Bn| = N, |Bn-1| = N/2, ... down to 2 bits, plus a timestamp for each
  // sequence and for the dummy B0: the paper's 2N + b_T log2 N.
  double seqBits = 0;
  std::size_t len = numItems;
  int levels = 0;
  while (len >= 2) {
    seqBits += static_cast<double>(len);
    len /= 2;
    ++levels;
  }
  return seqBits + static_cast<double>((levels + 1) * timestampBits);
}

net::Bits SizeModel::sigReportBits(std::size_t combinedSignatures) const {
  return static_cast<double>(timestampBits) +
         static_cast<double>(combinedSignatures) * signatureBits;
}

net::Bits SizeModel::tlbMessageBits() const {
  return static_cast<double>(clientIdBits() + timestampBits);
}

net::Bits SizeModel::checkRequestBits(std::size_t entries) const {
  return static_cast<double>(clientIdBits()) +
         static_cast<double>(entries) *
             static_cast<double>(itemIdBits() + timestampBits);
}

net::Bits SizeModel::validityReportBits(std::size_t invalid) const {
  return static_cast<double>(clientIdBits() + timestampBits) +
         static_cast<double>(invalid) * static_cast<double>(itemIdBits());
}

net::Bits SizeModel::queryRequestBits() const {
  return net::bitsFromBytes(controlMessageBytes);
}

net::Bits SizeModel::dataItemBits() const {
  return net::bitsFromBytes(dataItemBytes);
}

}  // namespace mci::report
