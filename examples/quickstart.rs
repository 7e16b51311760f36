//! Quickstart: a cache + back-end pair, a cached view, and the currency
//! clause in action.
//!
//! ```sh
//! cargo run -p rcc-mtcache --example quickstart
//! ```

use rcc_common::Duration;
use rcc_mtcache::MTCache;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One call builds both servers on a shared simulated clock.
    let cache = MTCache::new();

    // DDL executes at the cache and is forwarded to the back-end; the
    // cache keeps a shadow definition plus back-end statistics.
    cache
        .execute("CREATE TABLE products (sku INT, name VARCHAR, price FLOAT, PRIMARY KEY (sku))")?;
    for sku in 1..=100 {
        cache.execute(&format!(
            "INSERT INTO products VALUES ({sku}, 'Product {sku}', {}.99)",
            sku * 3
        ))?;
    }
    cache.analyze("products")?;

    // A currency region: its distribution agent wakes every 10 s and
    // delivers committed updates with a 2 s delay. A heartbeat row
    // replicated with the data bounds the cache's staleness.
    cache.create_region("shop", Duration::from_secs(10), Duration::from_secs(2))?;
    cache.execute(
        "CREATE CACHED VIEW products_v REGION shop AS SELECT sku, name, price FROM products",
    )?;

    // Let replication run a few cycles.
    cache.advance(Duration::from_secs(30))?;

    // 1) No currency clause → traditional semantics: latest snapshot,
    //    computed at the back-end.
    let current = cache.execute("SELECT price FROM products WHERE sku = 42")?;
    println!(
        "-- no clause (plan: {:?}, remote: {})",
        current.plan_choice, current.used_remote
    );
    print!("{}", current.display_rows(3));

    // 2) "Good enough" semantics: up to 60 s of staleness accepted. The
    //    optimizer builds a dynamic plan whose currency guard checks the
    //    region heartbeat and reads the local view.
    let relaxed = cache
        .execute("SELECT price FROM products WHERE sku = 42 CURRENCY BOUND 60 SEC ON (products)")?;
    println!(
        "-- 60s bound (plan: {:?}, remote: {}, guards passed: {})",
        relaxed.plan_choice,
        relaxed.used_remote,
        relaxed.local_branches()
    );
    print!("{}", relaxed.display_rows(3));
    println!("-- executed plan:\n{}", relaxed.plan_explain());

    // 3) An update commits at the back-end. Within the propagation window
    //    the bounded read still serves the (acceptably stale) old price;
    //    the unbounded read sees the new one immediately.
    cache.execute("UPDATE products SET price = 1.0 WHERE sku = 42")?;
    let stale = cache
        .execute("SELECT price FROM products WHERE sku = 42 CURRENCY BOUND 60 SEC ON (products)")?;
    let fresh = cache.execute("SELECT price FROM products WHERE sku = 42")?;
    println!(
        "-- after update: bounded read = {}, current read = {}",
        stale.rows[0].get(0),
        fresh.rows[0].get(0)
    );

    // 4) After the next propagation cycle the view has caught up.
    cache.advance(Duration::from_secs(15))?;
    let caught_up = cache
        .execute("SELECT price FROM products WHERE sku = 42 CURRENCY BOUND 60 SEC ON (products)")?;
    println!(
        "-- after propagation: bounded read = {}",
        caught_up.rows[0].get(0)
    );

    println!(
        "-- totals: {} local branches, {} remote branches, {} remote queries",
        cache
            .counters()
            .local_branches
            .load(std::sync::atomic::Ordering::Relaxed),
        cache
            .counters()
            .remote_branches
            .load(std::sync::atomic::Ordering::Relaxed),
        cache
            .counters()
            .remote_queries
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    Ok(())
}
