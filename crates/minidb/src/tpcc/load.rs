//! Initial database population (TPC-C §4.3, scaled).
//!
//! Runs with recording off: the load is setup, not workload. Keys are
//! inserted in ascending order so leaves fill without shifts, exactly as
//! a bulk loader would.

use super::schema::{field, key, width, Tables};
use super::{lastname_hash, TpccConfig};
use crate::{Db, Env};
use rand::rngs::StdRng;
use rand::Rng;
use tls_trace::Addr;

/// Fills all tables.
pub fn populate(env: &mut Env, db: &Db, tables: &Tables, cfg: &TpccConfig, rng: &mut StdRng) {
    assert!(!env.rec.recording(), "load must not be recorded");

    // ITEM + STOCK.
    for i_id in 1..=cfg.items {
        let mut row = vec![0u8; width::ITEM as usize];
        put_u32(&mut row, field::I_PRICE, rng.gen_range(100..=10_000));
        put_u64(&mut row, field::I_NAME_HASH, lastname_hash(i_id % 1000));
        tables.item.insert(env, &db.alloc, key::item(i_id), &row);

        let mut srow = vec![0u8; width::STOCK as usize];
        put_u32(&mut srow, field::S_QUANTITY, rng.gen_range(10..=100));
        tables.stock.insert(env, &db.alloc, key::item(i_id), &srow);
    }

    // WAREHOUSE (single warehouse).
    let mut wrow = vec![0u8; width::WAREHOUSE as usize];
    put_u32(&mut wrow, field::W_TAX, rng.gen_range(0..=2000));
    tables.warehouse.insert(env, &db.alloc, key::warehouse(1), &wrow);

    for d_id in 1..=cfg.districts {
        // DISTRICT: next order id continues past the loaded orders.
        let mut drow = vec![0u8; width::DISTRICT as usize];
        put_u32(&mut drow, field::D_NEXT_O_ID, cfg.initial_orders_per_district + 1);
        put_u32(&mut drow, field::D_TAX, rng.gen_range(0..=2000));
        tables.district.insert(env, &db.alloc, key::district(d_id), &drow);

        // CUSTOMER + name index.
        for c_id in 1..=cfg.customers_per_district {
            let last = lastname_hash(customer_name_idx(c_id));
            let mut crow = vec![0u8; width::CUSTOMER as usize];
            put_u64(&mut crow, field::C_BALANCE, 0);
            put_u64(&mut crow, field::C_LAST_HASH, last);
            put_u32(&mut crow, field::C_DISCOUNT, rng.gen_range(0..=5000));
            tables.customer.insert(env, &db.alloc, key::customer(d_id, c_id), &crow);
            tables.customer_name.insert(
                env,
                &db.alloc,
                key::customer_name(d_id, last, c_id),
                &(c_id as u64).to_le_bytes(),
            );
        }

        // ORDERS, ORDER-LINE, NEW-ORDER. The newest third of the orders
        // is undelivered (TPC-C loads 900 of 3000 into NEW-ORDER).
        let delivered_upto = cfg.initial_orders_per_district * 2 / 3;
        for o_id in 1..=cfg.initial_orders_per_district {
            let c_id = rng.gen_range(1..=cfg.customers_per_district);
            let ol_cnt = rng.gen_range(5..=15u32);
            let delivered = o_id <= delivered_upto;

            let mut orow = vec![0u8; width::ORDERS as usize];
            put_u32(&mut orow, field::O_C_ID, c_id);
            put_u32(
                &mut orow,
                field::O_CARRIER_ID,
                if delivered { rng.gen_range(1..=10) } else { 0 },
            );
            put_u64(&mut orow, field::O_ENTRY_D, o_id as u64);
            put_u32(&mut orow, field::O_OL_CNT, ol_cnt);
            tables.orders.insert(env, &db.alloc, key::order(d_id, o_id), &orow);
            tables.order_customer.insert(
                env,
                &db.alloc,
                key::order_customer(d_id, c_id, o_id),
                &key::order(d_id, o_id).to_le_bytes(),
            );

            for ol in 1..=ol_cnt {
                let mut lrow = vec![0u8; width::ORDER_LINE as usize];
                put_u32(&mut lrow, field::OL_I_ID, rng.gen_range(1..=cfg.items));
                put_u32(&mut lrow, field::OL_SUPPLY_W_ID, 1);
                put_u64(&mut lrow, field::OL_DELIVERY_D, if delivered { o_id as u64 } else { 0 });
                put_u32(&mut lrow, field::OL_QUANTITY, rng.gen_range(1..=10));
                put_u64(&mut lrow, field::OL_AMOUNT, rng.gen_range(1..=999_999));
                tables.order_line.insert(env, &db.alloc, key::order_line(d_id, o_id, ol), &lrow);
            }

            if !delivered {
                tables.new_order.insert(env, &db.alloc, key::order(d_id, o_id), &[0u8; 8]);
            }

            // Track the customer's most recent order.
            let caddr =
                tables.customer.get_addr(env, key::customer(d_id, c_id)).expect("customer loaded");
            poke_u32(env, caddr.offset(field::C_LAST_ORDER), o_id);
        }
    }
}

fn customer_name_idx(c_id: u32) -> u32 {
    // TPC-C: the first 1000 customers get names 0..999 in order, the rest
    // NURand-like; a simple mix keeps names repeating like the spec's.
    if c_id <= 1000 {
        c_id - 1
    } else {
        (c_id * 2654435761) % 1000
    }
}

fn put_u32(row: &mut [u8], off: u64, v: u32) {
    row[off as usize..off as usize + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(row: &mut [u8], off: u64, v: u64) {
    row[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
}

fn poke_u32(env: &mut Env, addr: Addr, v: u32) {
    env.mem.poke_u32(addr, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptLevel, Tpcc};

    #[test]
    fn population_matches_scale() {
        let t = Tpcc::new(TpccConfig::test());
        let mut tt = t;
        let cfg = tt.cfg.clone();
        let env = &mut tt.env;
        assert_eq!(tt.tables.item.count(env), cfg.items as u64);
        assert_eq!(tt.tables.stock.count(env), cfg.items as u64);
        assert_eq!(
            tt.tables.customer.count(env),
            (cfg.districts * cfg.customers_per_district) as u64
        );
        assert_eq!(
            tt.tables.orders.count(env),
            (cfg.districts * cfg.initial_orders_per_district) as u64
        );
        assert_eq!(tt.tables.order_customer.count(env), tt.tables.orders.count(env));
        let undelivered = cfg.initial_orders_per_district - cfg.initial_orders_per_district * 2 / 3;
        assert_eq!(tt.tables.new_order.count(env), (cfg.districts * undelivered) as u64);
        assert!(
            tt.tables.order_line.count(env)
                >= (cfg.districts * cfg.initial_orders_per_district * 5) as u64
        );
    }

    #[test]
    fn district_next_order_id_is_loaded() {
        let mut t = Tpcc::new(TpccConfig::test());
        let cfg = t.cfg.clone();
        let da = t.tables.district.get_addr(&mut t.env, key::district(1)).unwrap();
        assert_eq!(t.env.mem.peek_u32(da), cfg.initial_orders_per_district + 1);
    }

    #[test]
    fn load_is_identical_across_opt_levels() {
        // Engine options change physical logging, not the loaded image:
        // every allocated byte matches, not just the rows.
        let mut a_cfg = TpccConfig::test();
        a_cfg.opts = OptLevel::none();
        let a = Tpcc::new(a_cfg);
        let b = Tpcc::new(TpccConfig::test());
        assert_eq!(a.env.mem.allocated(), b.env.mem.allocated());
        let len = a.env.mem.allocated() as usize;
        assert!(a.env.mem.bytes(Addr(64), len) == b.env.mem.bytes(Addr(64), len));
    }
}
