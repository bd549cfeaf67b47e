#include "workload/benchmarks.h"

#include "util/logging.h"

namespace lpa::workload {

namespace {

/// Per-channel naming of the TPC-DS fact tables and their FK columns.
struct Channel {
  const char* sales;
  const char* returns;
  const char* s_date;
  const char* s_item;
  const char* s_cust;
  const char* s_number;  // ticket / order number
  const char* s_dim;     // channel dimension table
  const char* s_dim_fk;
  const char* s_dim_pk;
  const char* s_promo;
  const char* r_date;
  const char* r_item;
  const char* r_cust;
  const char* r_number;
};

const Channel kStore = {"store_sales",  "store_returns", "ss_sold_date_sk",
                        "ss_item_sk",   "ss_customer_sk", "ss_ticket_number",
                        "store",        "ss_store_sk",    "s_store_sk",
                        "ss_promo_sk",  "sr_returned_date_sk", "sr_item_sk",
                        "sr_customer_sk", "sr_ticket_number"};
const Channel kCatalog = {"catalog_sales", "catalog_returns", "cs_sold_date_sk",
                          "cs_item_sk",    "cs_bill_customer_sk", "cs_order_number",
                          "call_center",   "cs_call_center_sk", "cc_call_center_sk",
                          "cs_promo_sk",   "cr_returned_date_sk", "cr_item_sk",
                          "cr_refunded_customer_sk", "cr_order_number"};
const Channel kWeb = {"web_sales",   "web_returns", "ws_sold_date_sk",
                      "ws_item_sk",  "ws_bill_customer_sk", "ws_order_number",
                      "web_site",    "ws_web_site_sk", "web_site_sk",
                      "ws_promo_sk", "wr_returned_date_sk", "wr_item_sk",
                      "wr_refunded_customer_sk", "wr_order_number"};
const Channel kChannels[] = {kStore, kCatalog, kWeb};

}  // namespace

// A 60-query TPC-DS workload modeling the Postgres-XL-executable subset the
// paper evaluates: per-channel star queries, sales-returns joins on the
// composite (ticket/order number, item) key, cross-channel joins through
// item, inventory queries, and customer-centric snowflake queries. Several
// templates appear in multiple selectivity buckets (Sec 3.2).
Workload MakeTpcdsWorkload(const schema::Schema& s) {
  std::vector<QuerySpec> queries;
  int seq = 0;
  auto q = [&s, &seq]() {
    // Appended rather than `"q" + std::to_string(...)`: GCC 12 inlines the
    // prepend into a memcpy it wrongly flags with -Wrestrict in Release.
    std::string name = "q";
    name += std::to_string(++seq);
    return QueryBuilder(&s, std::move(name));
  };

  // --- Family 1: date x item brand/category reports (q3/q42/q52/q55/q12/q20
  // style), three channels x three selectivity buckets. (18 queries)
  const double kItemSel[] = {0.1, 0.01, 0.001};
  for (const auto& ch : kChannels) {
    for (int b = 0; b < 3; ++b) {
      queries.push_back(q()
                            .Scan(ch.sales, 1.0)
                            .Scan("date_dim", 0.011)
                            .Scan("item", kItemSel[b])
                            .Join(ch.sales, ch.s_date, "date_dim", "d_date_sk")
                            .Join(ch.sales, ch.s_item, "item", "i_item_sk")
                            .Output(0.001)
                            .Bucket(b)
                            .Build());
    }
  }

  // --- Family 2: date x item x channel-dimension (q43/q62-style). (3)
  for (const auto& ch : kChannels) {
    queries.push_back(q()
                          .Scan(ch.sales, 1.0)
                          .Scan("date_dim", 0.08)
                          .Scan("item", 1.0)
                          .Scan(ch.s_dim, 1.0)
                          .Join(ch.sales, ch.s_date, "date_dim", "d_date_sk")
                          .Join(ch.sales, ch.s_item, "item", "i_item_sk")
                          .Join(ch.sales, ch.s_dim_fk, ch.s_dim, ch.s_dim_pk)
                          .Output(0.001)
                          .Build());
  }

  // --- Family 3: demographics + promotion (q7/q26-style). (3)
  const char* kCdemoFk[] = {"ss_cdemo_sk", nullptr, nullptr};
  for (size_t c = 0; c < 3; ++c) {
    const auto& ch = kChannels[c];
    auto b = q()
                 .Scan(ch.sales, 1.0)
                 .Scan("date_dim", 0.014)
                 .Scan("item", 1.0)
                 .Scan("promotion", 0.5)
                 .Join(ch.sales, ch.s_date, "date_dim", "d_date_sk")
                 .Join(ch.sales, ch.s_item, "item", "i_item_sk")
                 .Join(ch.sales, ch.s_promo, "promotion", "p_promo_sk");
    if (kCdemoFk[c] != nullptr) {
      b.Scan("customer_demographics", 0.05)
          .Join(ch.sales, kCdemoFk[c], "customer_demographics", "cd_demo_sk");
    }
    queries.push_back(b.Output(0.001).Build());
  }

  // --- Family 4: customer + address snowflake (q15/q45/q46-style), two
  // selectivity buckets per channel. (6)
  for (const auto& ch : kChannels) {
    for (int b = 0; b < 2; ++b) {
      queries.push_back(
          q().Scan(ch.sales, 1.0)
              .Scan("date_dim", b == 0 ? 0.02 : 0.16)
              .Scan("customer", 1.0)
              .Scan("customer_address", b == 0 ? 0.02 : 0.1)
              .Join(ch.sales, ch.s_date, "date_dim", "d_date_sk")
              .Join(ch.sales, ch.s_cust, "customer", "c_customer_sk")
              .Join("customer", "c_current_addr_sk", "customer_address", "ca_address_sk")
              .Output(0.001)
              .Bucket(b)
              .Build());
    }
  }

  // --- Family 5: sales ⋈ returns on the composite (number, item) key
  // (q17/q25/q29/q40-style). Partitioning both facts by item co-locates the
  // join — the non-obvious design the paper's agent discovers. (6)
  for (const auto& ch : kChannels) {
    for (int b = 0; b < 2; ++b) {
      auto builder = q()
                         .Scan(ch.sales, 1.0)
                         .Scan(ch.returns, 1.0)
                         .Scan("date_dim", b == 0 ? 0.011 : 0.08)
                         .Scan("item", 1.0)
                         .Join(ch.sales, ch.s_number, ch.returns, ch.r_number);
      builder.AndJoin(ch.sales, ch.s_item, ch.returns, ch.r_item);
      builder.Join(ch.sales, ch.s_date, "date_dim", "d_date_sk")
          .Join(ch.returns, ch.r_item, "item", "i_item_sk")
          .Output(0.001)
          .Bucket(b);
      queries.push_back(builder.Build());
    }
  }

  // --- Family 6: returns-only stars with reason (q85/q91/q93-style). (3)
  const char* kReasonFk[] = {"sr_reason_sk", "cr_reason_sk", "wr_reason_sk"};
  for (size_t c = 0; c < 3; ++c) {
    const auto& ch = kChannels[c];
    queries.push_back(q()
                          .Scan(ch.returns, 1.0)
                          .Scan("reason", 0.02)
                          .Scan("customer", 1.0)
                          .Join(ch.returns, kReasonFk[c], "reason", "r_reason_sk")
                          .Join(ch.returns, ch.r_cust, "customer", "c_customer_sk")
                          .Output(0.01)
                          .Build());
  }

  // --- Family 7: inventory (q21/q22/q37-style). (3)
  queries.push_back(q()
                        .Scan("inventory", 1.0)
                        .Scan("item", 0.01)
                        .Scan("warehouse", 1.0)
                        .Scan("date_dim", 0.04)
                        .Join("inventory", "inv_item_sk", "item", "i_item_sk")
                        .Join("inventory", "inv_warehouse_sk", "warehouse", "w_warehouse_sk")
                        .Join("inventory", "inv_date_sk", "date_dim", "d_date_sk")
                        .Output(0.001)
                        .Build());
  queries.push_back(q()
                        .Scan("inventory", 1.0)
                        .Scan("item", 1.0)
                        .Scan("date_dim", 0.08)
                        .Join("inventory", "inv_item_sk", "item", "i_item_sk")
                        .Join("inventory", "inv_date_sk", "date_dim", "d_date_sk")
                        .Output(0.001)
                        .Build());
  queries.push_back(q()
                        .Scan("inventory", 1.0)
                        .Scan("item", 0.005)
                        .Scan("warehouse", 1.0)
                        .Scan("date_dim", 0.16)
                        .Join("inventory", "inv_item_sk", "item", "i_item_sk")
                        .Join("inventory", "inv_warehouse_sk", "warehouse", "w_warehouse_sk")
                        .Join("inventory", "inv_date_sk", "date_dim", "d_date_sk")
                        .Output(0.001)
                        .Bucket(1)
                        .Build());

  // --- Family 8: catalog_sales ⋈ inventory on (item, warehouse) (q72). (1)
  queries.push_back(q()
                        .Scan("catalog_sales", 1.0)
                        .Scan("inventory", 1.0)
                        .Scan("item", 0.05)
                        .Scan("warehouse", 1.0)
                        .Scan("date_dim", 0.011)
                        .Join("catalog_sales", "cs_item_sk", "inventory", "inv_item_sk")
                        .AndJoin("catalog_sales", "cs_warehouse_sk", "inventory", "inv_warehouse_sk")
                        .AndJoin("catalog_sales", "cs_sold_date_sk", "inventory", "inv_date_sk")
                        .Join("catalog_sales", "cs_item_sk", "item", "i_item_sk")
                        .Join("inventory", "inv_warehouse_sk", "warehouse", "w_warehouse_sk")
                        .Join("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk")
                        .Output(0.0001)
                        .Build());

  // --- Family 9: cross-channel repurchase chains (q29/q78-style): a store
  // sale is returned, then the same customer re-buys the item via another
  // channel. The composite (customer, item) keys keep cardinalities sane
  // while still rewarding item-aligned fact co-partitioning. (2)
  {
    auto builder = q()
                       .Scan("store_sales", 1.0)
                       .Scan("store_returns", 1.0)
                       .Scan("catalog_sales", 1.0)
                       .Scan("item", 0.05)
                       .Join("store_sales", "ss_ticket_number", "store_returns", "sr_ticket_number");
    builder.AndJoin("store_sales", "ss_item_sk", "store_returns", "sr_item_sk");
    builder.Join("store_returns", "sr_customer_sk", "catalog_sales", "cs_bill_customer_sk")
        .AndJoin("store_returns", "sr_item_sk", "catalog_sales", "cs_item_sk")
        .Join("store_sales", "ss_item_sk", "item", "i_item_sk")
        .Output(0.0001)
        .Build();
    queries.push_back(builder.Build());
  }
  {
    auto builder = q()
                       .Scan("web_sales", 1.0)
                       .Scan("web_returns", 1.0)
                       .Scan("catalog_sales", 1.0)
                       .Scan("item", 0.05)
                       .Join("web_sales", "ws_order_number", "web_returns", "wr_order_number");
    builder.AndJoin("web_sales", "ws_item_sk", "web_returns", "wr_item_sk");
    builder.Join("web_returns", "wr_refunded_customer_sk", "catalog_sales", "cs_bill_customer_sk")
        .AndJoin("web_returns", "wr_item_sk", "catalog_sales", "cs_item_sk")
        .Join("web_sales", "ws_item_sk", "item", "i_item_sk")
        .Output(0.0001);
    queries.push_back(builder.Build());
  }

  // --- Family 10: household demographics + time (q96-style, store only). (1)
  queries.push_back(q()
                        .Scan("store_sales", 1.0)
                        .Scan("household_demographics", 0.1)
                        .Scan("date_dim", 0.04)
                        .Scan("store", 1.0)
                        .Join("store_sales", "ss_hdemo_sk", "household_demographics", "hd_demo_sk")
                        .Join("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk")
                        .Join("store_sales", "ss_store_sk", "store", "s_store_sk")
                        .Output(0.0001)
                        .Build());

  // --- Family 11: logistics dimensions (q62/q99-style). (2)
  queries.push_back(q()
                        .Scan("catalog_sales", 1.0)
                        .Scan("warehouse", 1.0)
                        .Scan("ship_mode", 1.0)
                        .Scan("call_center", 1.0)
                        .Scan("date_dim", 0.08)
                        .Join("catalog_sales", "cs_warehouse_sk", "warehouse", "w_warehouse_sk")
                        .Join("catalog_sales", "cs_ship_mode_sk", "ship_mode", "sm_ship_mode_sk")
                        .Join("catalog_sales", "cs_call_center_sk", "call_center", "cc_call_center_sk")
                        .Join("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk")
                        .Output(0.001)
                        .Build());
  queries.push_back(q()
                        .Scan("web_sales", 1.0)
                        .Scan("web_page", 1.0)
                        .Scan("web_site", 1.0)
                        .Scan("date_dim", 0.08)
                        .Join("web_sales", "ws_web_page_sk", "web_page", "wp_web_page_sk")
                        .Join("web_sales", "ws_web_site_sk", "web_site", "web_site_sk")
                        .Join("web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk")
                        .Output(0.001)
                        .Build());

  // --- Family 12: store revenue per item (q65-style) + broad demographic
  // filter (q13-style). (2)
  queries.push_back(q()
                        .Scan("store_sales", 1.0)
                        .Scan("store", 1.0)
                        .Scan("item", 1.0)
                        .Scan("date_dim", 0.08)
                        .Join("store_sales", "ss_store_sk", "store", "s_store_sk")
                        .Join("store_sales", "ss_item_sk", "item", "i_item_sk")
                        .Join("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk")
                        .Output(0.01)
                        .Build());
  queries.push_back(q()
                        .Scan("store_sales", 1.0)
                        .Scan("store", 1.0)
                        .Scan("customer_demographics", 0.05)
                        .Scan("household_demographics", 0.1)
                        .Scan("customer_address", 0.06)
                        .Scan("date_dim", 0.14)
                        .Join("store_sales", "ss_store_sk", "store", "s_store_sk")
                        .Join("store_sales", "ss_cdemo_sk", "customer_demographics", "cd_demo_sk")
                        .Join("store_sales", "ss_hdemo_sk", "household_demographics", "hd_demo_sk")
                        .Join("store_sales", "ss_addr_sk", "customer_address", "ca_address_sk")
                        .Join("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk")
                        .Output(0.0001)
                        .Build());

  // --- Family 13: returns + customer + address (q30/q81-style). (2)
  queries.push_back(q()
                        .Scan("web_returns", 1.0)
                        .Scan("date_dim", 0.14)
                        .Scan("customer", 1.0)
                        .Scan("customer_address", 0.02)
                        .Join("web_returns", "wr_returned_date_sk", "date_dim", "d_date_sk")
                        .Join("web_returns", "wr_refunded_customer_sk", "customer", "c_customer_sk")
                        .Join("customer", "c_current_addr_sk", "customer_address", "ca_address_sk")
                        .Output(0.001)
                        .Build());
  queries.push_back(q()
                        .Scan("catalog_returns", 1.0)
                        .Scan("date_dim", 0.14)
                        .Scan("customer", 1.0)
                        .Scan("customer_address", 0.02)
                        .Join("catalog_returns", "cr_returned_date_sk", "date_dim", "d_date_sk")
                        .Join("catalog_returns", "cr_refunded_customer_sk", "customer", "c_customer_sk")
                        .Join("customer", "c_current_addr_sk", "customer_address", "ca_address_sk")
                        .Output(0.001)
                        .Build());

  // --- Family 14: catalog return-rate analysis (q91-style): sales joined to
  // their returns plus the call center and reason dimensions. (2)
  for (int b = 0; b < 2; ++b) {
    auto builder = q()
                       .Scan("catalog_sales", 1.0)
                       .Scan("catalog_returns", 1.0)
                       .Scan("call_center", 1.0)
                       .Scan("reason", b == 0 ? 0.02 : 0.2)
                       .Join("catalog_sales", "cs_order_number", "catalog_returns", "cr_order_number");
    builder.AndJoin("catalog_sales", "cs_item_sk", "catalog_returns", "cr_item_sk");
    builder.Join("catalog_returns", "cr_call_center_sk", "call_center", "cc_call_center_sk")
        .Join("catalog_returns", "cr_reason_sk", "reason", "r_reason_sk")
        .Output(0.001)
        .Bucket(b);
    queries.push_back(builder.Build());
  }

  // --- Family 15: single-fact sharp date slices (q96/q50-style residual
  // reporting queries across channels, two buckets). (6)
  for (const auto& ch : kChannels) {
    for (int b = 0; b < 2; ++b) {
      queries.push_back(q()
                            .Scan(ch.sales, 1.0)
                            .Scan("date_dim", b == 0 ? 0.0027 : 0.011)
                            .Join(ch.sales, ch.s_date, "date_dim", "d_date_sk")
                            .Output(0.001)
                            .Bucket(b)
                            .Build());
    }
  }

  // --- Family 16: sales x date x item x customer (q19-style). (3)
  for (const auto& ch : kChannels) {
    queries.push_back(q()
                          .Scan(ch.sales, 1.0)
                          .Scan("date_dim", 0.011)
                          .Scan("item", 0.01)
                          .Scan("customer", 1.0)
                          .Join(ch.sales, ch.s_date, "date_dim", "d_date_sk")
                          .Join(ch.sales, ch.s_item, "item", "i_item_sk")
                          .Join(ch.sales, ch.s_cust, "customer", "c_customer_sk")
                          .Output(0.001)
                          .Build());
  }

  // --- Family 17: category rollups without a date restriction. (3)
  for (const auto& ch : kChannels) {
    queries.push_back(q()
                          .Scan(ch.sales, 1.0)
                          .Scan("item", 0.1)
                          .Join(ch.sales, ch.s_item, "item", "i_item_sk")
                          .Output(0.001)
                          .Build());
  }

  // --- Family 18: returns x date x item (return-rate reports). (3)
  for (const auto& ch : kChannels) {
    queries.push_back(q()
                          .Scan(ch.returns, 1.0)
                          .Scan("date_dim", 0.08)
                          .Scan("item", 0.1)
                          .Join(ch.returns, ch.r_date, "date_dim", "d_date_sk")
                          .Join(ch.returns, ch.r_item, "item", "i_item_sk")
                          .Output(0.001)
                          .Build());
  }

  LPA_CHECK(queries.size() == 60);
  Workload w(std::move(queries));
  w.SetUniformFrequencies();
  return w;
}

}  // namespace lpa::workload
